package main

import (
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// TestBenchArgumentLists pins the two argument lists bench/ spawns collabd
// with beyond -addr: they must parse, and must build what the benchmark
// assumes — no recorder behind a surface sized 0, a disk tier behind
// -store-dir.
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
		if srv.Explain() == nil || srv.Flight() == nil || srv.Clients() == nil || srv.ArtifactLedger() == nil {
			t.Error("explain, requests, clients and artifacts should default on")
		}
		if srv.Store.Disk() != nil {
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
		if srv.Explain() != nil || srv.Flight() != nil ||
			srv.Clients() != nil || srv.ArtifactLedger() != nil {
			t.Errorf("a surface sized 0 still has a recorder: explain=%v requests=%v clients=%v artifacts=%v",
				srv.Explain(), srv.Flight(), srv.Clients(), srv.ArtifactLedger())
		}
		if srv.Store.Ledger() != nil {
			t.Error("-artifacts 0 left a ledger attached to the store")
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
		if srv.Store.Disk() == nil {
			t.Fatal("-store-dir did not yield a tiered store")
		}
		if got := srv.Store.Profile().Name; got != "disk" {
			t.Errorf("profile = %q, want disk", got)
		}
		if c.memBudget != 4194304 || c.storeDir != dir {
			t.Errorf("parsed mem-budget %d store-dir %q", c.memBudget, c.storeDir)
		}
	})

	// README "Saturation": a longer flight log and a wider client table.
	t.Run("sized", func(t *testing.T) {
		c, err := parseFlags([]string{"-requests", "4096", "-clients", "64"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := c.newServer(discardLogger())
		if err != nil {
			t.Fatal(err)
		}
		if srv.Flight().Cap() != 4096 || srv.Clients().Cap() != 64 {
			t.Errorf("requests cap %d, clients cap %d; want 4096, 64", srv.Flight().Cap(), srv.Clients().Cap())
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
