package main

import (
	"io"
	"log/slog"
	"testing"
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
		if srv.Trace() != nil {
			t.Error("tracing should default off")
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
		if srv.Trace() != nil || srv.Explain() != nil || srv.Flight() != nil ||
			srv.Clients() != nil || srv.ArtifactLedger() != nil {
			t.Errorf("a surface sized 0 still has a recorder: trace=%v explain=%v requests=%v clients=%v artifacts=%v",
				srv.Trace(), srv.Explain(), srv.Flight(), srv.Clients(), srv.ArtifactLedger())
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

	// README "Metrics and tracing": the rolling server trace.
	t.Run("traced", func(t *testing.T) {
		c, err := parseFlags([]string{"-trace", "65536", "-clients", "64"})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := c.newServer(discardLogger())
		if err != nil {
			t.Fatal(err)
		}
		if srv.Trace().Cap() != 65536 || srv.Clients().Cap() != 64 {
			t.Errorf("trace cap %d, clients cap %d; want 65536, 64", srv.Trace().Cap(), srv.Clients().Cap())
		}
	})

	t.Run("unknown flag", func(t *testing.T) {
		if _, err := parseFlags([]string{"-no-such-flag"}); err == nil {
			t.Error("unknown flag parsed")
		}
	})
}
