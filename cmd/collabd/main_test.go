package main

import (
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rec"
	"repro/internal/remote"
)

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// surfaces are the debugging surfaces' routes, one per collabd flag.
var surfaces = []string{"/v1/explain", "/v1/requests", "/v1/clients", "/v1/artifacts"}

// status answers one GET of path, through the handler collabd serves srv
// with, after a request that leaves a record in the flight log and an
// optimize record for explain.
func status(srv *core.Server, path string) int {
	h := remote.NewHandler(srv)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	srv.Optimize(graph.NewDAG(), nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code
}

// demotes reports whether srv's store moves a stored artifact to a disk
// tier, which only a store with one attached does.
func demotes(t *testing.T, srv *core.Server) bool {
	t.Helper()
	if err := srv.Store.Put("probe", &graph.AggregateArtifact{Value: 1}); err != nil {
		t.Fatal(err)
	}
	return srv.Store.Demote("probe") == nil
}

// TestBenchArgumentLists pins the two argument lists bench/ spawns collabd
// with beyond -addr: they must parse, and must build what the benchmark
// assumes — every surface served by default and none behind a flag set to
// 0, a disk tier behind -store-dir.
func TestBenchArgumentLists(t *testing.T) {
	t.Run("defaults", func(t *testing.T) {
		c, err := parseFlags([]string{"-addr", "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := c.newServer(discardLogger())
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range surfaces {
			if code := status(srv, path); code != http.StatusOK {
				t.Errorf("GET %s = %d by default, want 200", path, code)
			}
		}
		if demotes(t, srv) {
			t.Error("no -store-dir, yet the store has a disk tier")
		}
	})

	// bench/workloads.go bareArgs: the instrumentation-off rerun.
	t.Run("instrumentation off", func(t *testing.T) {
		c, err := parseFlags([]string{"-addr", "127.0.0.1:0",
			"-explain", "0", "-requests", "0", "-clients", "0", "-artifacts", "0"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := c.newServer(discardLogger())
		if err != nil {
			t.Fatal(err)
		}
		if srv.Explain() != nil || srv.Flight() != nil || srv.ArtifactLedger() != nil {
			t.Errorf("a surface sized 0 still has a recorder: explain=%v requests=%v artifacts=%v",
				srv.Explain(), srv.Flight(), srv.ArtifactLedger())
		}
		for _, path := range surfaces {
			if code := status(srv, path); code != http.StatusNotFound {
				t.Errorf("GET %s = %d with its flag at 0, want 404", path, code)
			}
		}
	})

	// bench/run.go serverArgs: the tiered workload.
	t.Run("tiered", func(t *testing.T) {
		dir := t.TempDir()
		c, err := parseFlags([]string{"-addr", "127.0.0.1:0",
			"-store-dir", dir, "-profile", "disk", "-mem-budget", "4194304"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := c.newServer(discardLogger())
		if err != nil {
			t.Fatal(err)
		}
		if !demotes(t, srv) {
			t.Fatal("-store-dir did not yield a tiered store")
		}
		if got := srv.Store.Profile().Name; got != "disk" {
			t.Errorf("profile = %q, want disk", got)
		}
		if c.memBudget != 4194304 || c.storeDir != dir {
			t.Errorf("parsed mem-budget %d store-dir %q", c.memBudget, c.storeDir)
		}
	})

	// README "Saturation": a longer flight log, which the client view reads.
	t.Run("sized", func(t *testing.T) {
		c, err := parseFlags([]string{"-requests", "4096"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := c.newServer(discardLogger())
		if err != nil {
			t.Fatal(err)
		}
		if code := status(srv, "/v1/clients"); code != http.StatusOK || srv.ClientReport().Clients[0].Requests != 2 {
			t.Errorf("GET /v1/clients = %d, report %+v; want the two requests the log holds", code, srv.ClientReport())
		}
		for i := 0; i < 5000; i++ {
			srv.Flight().Add(obs.Request{})
		}
		if n := srv.Flight().Len(); n != 4096 {
			t.Errorf("the flight log holds %d requests, want 4096", n)
		}
	})

	t.Run("unknown flag", func(t *testing.T) {
		if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
			t.Error("unknown flag parsed")
		}
	})
}

// TestParseFlagsRefusesWhatCannotRun: a non-positive -checkpoint (which
// would panic the ticker after "listening"), an -alpha outside [0, 1], and a
// -mem-budget with no -store-dir to demote to are usage errors; -alpha 0 and
// 1, the ends of the range, parse as given.
func TestParseFlagsRefusesWhatCannotRun(t *testing.T) {
	for _, args := range [][]string{
		{"-store-dir", t.TempDir(), "-checkpoint", "0"},
		{"-store-dir", t.TempDir(), "-checkpoint", "-1s"},
		{"-alpha", "-0.1"},
		{"-alpha", "1.5"},
		{"-alpha", "NaN"},
		{"-mem-budget", "4194304"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%q parsed", args)
		}
	}
	if _, err := parseFlags([]string{"-mem-budget", "1"}); err == nil || !strings.Contains(err.Error(), "-budget") {
		t.Errorf("-mem-budget without -store-dir: error %v, want one that points at -budget", err)
	}
	for _, alpha := range []float64{0, 1} {
		c, err := parseFlags([]string{"-alpha", strconv.FormatFloat(alpha, 'g', -1, 64)})
		if err != nil || c.alpha != alpha {
			t.Errorf("-alpha %v: parsed %+v, error %v", alpha, c, err)
		}
	}
}

// TestProfileNamesOrFile: -profile takes the path of the profile JSON that
// `collab calibration -fit remote -o` writes, and boots with that profile;
// a value that is neither a profile name nor a readable profile file is
// refused with the three names and the file's error.
func TestProfileNamesOrFile(t *testing.T) {
	fitted := cost.Profile{Name: "fitted:remote", Latency: 3 * time.Millisecond, BytesPerSecond: 5e7}
	blob, err := cost.EncodeProfileJSON(fitted)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fitted.json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := parseFlags([]string{"-profile", path})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := c.newServer(discardLogger())
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Store.Profile(); got != fitted {
		t.Errorf("-profile %s booted with %+v, want %+v", path, got, fitted)
	}

	c, err = parseFlags([]string{"-profile", "nosuch"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.newServer(discardLogger())
	if err == nil || !strings.Contains(err.Error(), "memory|disk|remote") || !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-profile nosuch: error %v, want one naming the three profiles and the missing file", err)
	}
}

// TestRefusesAVersion1StoreDir: a -store-dir of an older version — one
// holding a sound version-1 tier file, or a store.gob — makes newServer
// fail, naming the file and the last commit that converts it, so collabd
// exits 2 before it serves, as for any configuration it refuses; and the
// directory stays as it was, every file in place and no directory created.
func TestRefusesAVersion1StoreDir(t *testing.T) {
	w := rec.Frame("CTC1", 32)
	w.U8(0)
	w.Str16("id")
	w.Str16("x")
	w.U32(0)
	v1, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{filepath.Join("cols", "x.col"), "store.gob"} {
		dir := t.TempDir()
		path := filepath.Join(dir, file)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		before := listing(t, dir)
		c, err := parseFlags([]string{"-store-dir", dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.newServer(discardLogger()); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "commit 15844bf") {
			t.Fatalf("%s: newServer: %v; want an error naming %s and commit 15844bf", file, err, path)
		}
		exit := make(chan int, 1)
		go func() { exit <- run([]string{"-store-dir", dir, "-addr", "127.0.0.1:0"}) }()
		select {
		case code := <-exit:
			if code != 2 {
				t.Errorf("%s: collabd exits %d, want 2", file, code)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: collabd did not refuse the directory; it is serving", file)
		}
		if after := listing(t, dir); after != before {
			t.Errorf("%s: the directory changed:\n%s\nwas\n%s", file, after, before)
		}
	}
}

// listing is every path under dir, with each file's contents.
func listing(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		b.WriteString(path + "\n")
		if !d.IsDir() {
			content, err := os.ReadFile(path)
			b.Write(content)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShutdownDrainsBeforeTheLastSave: a request in flight when the signal
// arrives finishes with 200 before the final save runs, and a checkpoint under
// way at the signal finishes before it too — no two saves overlap.
func TestShutdownDrainsBeforeTheLastSave(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var handled atomic.Bool
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		handled.Store(true)
	})}

	// Every save marks itself active; the first checkpoint is still running
	// when the signal arrives and for a while after it.
	var active, overlaps, checkpoints atomic.Int32
	checkpointing, signalled := make(chan struct{}), make(chan struct{})
	saving := func(body func()) {
		if active.Add(1) != 1 {
			overlaps.Add(1)
		}
		body()
		active.Add(-1)
	}
	checkpoint := func() {
		saving(func() {
			if checkpoints.Add(1) == 1 {
				close(checkpointing)
				<-signalled
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
	var finalSawRequestDone, finalRan atomic.Bool
	final := func() {
		saving(func() {
			finalSawRequestDone.Store(handled.Load())
			finalRan.Store(true)
		})
	}

	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- serve(hs, ln, stop, time.Millisecond, checkpoint, final, discardLogger()) }()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	<-checkpointing
	stop <- syscall.SIGTERM
	close(signalled)
	// The server stops accepting once the checkpoint under way is done.
	for {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(time.Millisecond)
	}
	if finalRan.Load() {
		t.Fatal("the final save ran while a request was in flight")
	}
	close(release)
	if code := <-status; code != http.StatusOK {
		t.Errorf("the request in flight at the signal got status %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve returned %v after a drained shutdown", err)
	}
	if !finalRan.Load() || !finalSawRequestDone.Load() {
		t.Errorf("final save ran %v, after the request finished %v; want both", finalRan.Load(), finalSawRequestDone.Load())
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d saves started while another was running", n)
	}
}
