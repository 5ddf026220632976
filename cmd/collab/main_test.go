package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
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
	wp := synth.WideProfile{Branches: 2, Depth: 2, SpinIters: 2000}
	for i := 0; i < 2; i++ {
		rc := remote.NewClient(ts.URL, cost.Memory()) // a new collaborator each run: the second one fetches
		rc.SetName("analyst-1")
		if _, err := core.NewClient(rc).Run(synth.Wide(wp, 3)); err != nil {
			t.Fatal(err)
		}
		if err := rc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return lr, ts.URL
}

// TestViewSubcommands drives every view subcommand against a server with
// every surface on, then against one with every surface off: the route and
// query each flag set turns into, a recognizable piece of the output, and
// the server's own reason in the error when the surface is disabled.
func TestViewSubcommands(t *testing.T) {
	on, onURL := serve(t, core.WithExplain(true))
	_, offURL := serve(t,
		core.WithExplain(false), core.WithFlightRecorder(nil),
		core.WithClientTable(nil), core.WithArtifactLedger(nil))

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
