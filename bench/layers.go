package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units; manifest_test.go keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"step_p50_ms", "ms", "lower", 0.25},
	{"wire_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics a traced run reports, layer by layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "core.client.steps", unit: "count", better: "higher"},
		{name: "core.client.exec_wall_s", unit: "s", better: "lower"},
		{name: "core.client.compute_s", unit: "s", better: "lower"},
		{name: "core.client.self_s", unit: "s", better: "lower"},
		{name: "core.client.overlap", unit: "ratio", better: "higher"},
		{name: "core.client.ops_executed", unit: "count", better: "lower"},
		{name: "core.client.vertices_reused", unit: "count", better: "higher"},
		{name: "core.client.reuse_ratio", unit: "ratio", better: "higher"},
		{name: "core.client.warmstarted", unit: "count", better: "higher"},
		{name: "core.client.optimize_overhead_s", unit: "s", better: "lower"},
		{name: "core.client.step_p95_ms", unit: "ms", better: "lower"},
		{name: "core.client.step_max_ms", unit: "ms", better: "lower"},
		{name: "core.client.cpu_s", unit: "s", better: "lower"},
	}
	for _, r := range routes {
		defs = append(defs,
			metricDef{name: "remote." + r + ".count", unit: "count", better: "lower"},
			metricDef{name: "remote." + r + ".busy_s", unit: "s", better: "lower"},
			metricDef{name: "remote." + r + ".req_mb", unit: "MB", better: "lower"},
			metricDef{name: "remote." + r + ".resp_mb", unit: "MB", better: "lower"},
			metricDef{name: "remote." + r + ".p95_ms", unit: "ms", better: "lower"},
		)
	}
	return append(defs, []metricDef{
		{name: "remote.upload.mb_per_s", unit: "MB/s", better: "higher"},
		{name: "remote.fetch.mb_per_s", unit: "MB/s", better: "higher"},
		{name: "remote.failed", unit: "count", better: "lower"},
		{name: "remote.inproc_wall_s", unit: "s", better: "lower"},
		{name: "remote.http_tax_frac", unit: "ratio", better: "lower"},

		{name: "core.server.lock_wait_s", unit: "s", better: "lower"},
		{name: "core.server.lock_hold_s", unit: "s", better: "lower"},
		{name: "core.server.handler_s.optimize", unit: "s", better: "lower"},
		{name: "core.server.handler_s.update", unit: "s", better: "lower"},
		{name: "core.server.handler_s.artifact", unit: "s", better: "lower"},
		{name: "core.server.optimize_busy_s", unit: "s", better: "lower"},

		{name: "reuse.plan_s", unit: "s", better: "lower"},
		{name: "reuse.planned_loads", unit: "count", better: "higher"},
		{name: "reuse.pruned_by_cost", unit: "count", better: "lower"},
		{name: "reuse.warmstarts_proposed", unit: "count", better: "higher"},

		{name: "materialize.select_s", unit: "s", better: "lower"},
		{name: "materialize.runs", unit: "count", better: "lower"},
		{name: "materialize.select_ms_per_run_first100", unit: "ms", better: "lower"},
		{name: "materialize.select_ms_per_run_last100", unit: "ms", better: "lower"},

		{name: "eg.vertices", unit: "count", better: "lower"},
		{name: "eg.materialized", unit: "count", better: "higher"},

		{name: "store.puts", unit: "count", better: "lower"},
		{name: "store.get_hits", unit: "count", better: "higher"},
		{name: "store.get_misses", unit: "count", better: "lower"},
		{name: "store.hit_ratio", unit: "ratio", better: "higher"},
		{name: "store.evictions", unit: "count", better: "lower"},
		{name: "store.logical_mb", unit: "MB", better: "higher"},
		{name: "store.physical_mb", unit: "MB", better: "lower"},
		{name: "store.dedup_ratio", unit: "ratio", better: "higher"},
		{name: "store.lock_wait_s", unit: "s", better: "lower"},

		{name: "tier.demotions", unit: "count", better: "lower"},
		{name: "tier.promotions", unit: "count", better: "lower"},
		{name: "tier.disk_hits", unit: "count", better: "lower"},
		{name: "tier.disk_evictions", unit: "count", better: "lower"},
		{name: "tier.disk_mb", unit: "MB", better: "lower"},
		{name: "tier.dir_mb", unit: "MB", better: "lower"},
		{name: "tier.write_amp", unit: "ratio", better: "lower"},

		{name: "persist.shutdown_save_s", unit: "s", better: "lower"},
		{name: "persist.snapshot_mb", unit: "MB", better: "lower"},
		{name: "persist.restore_ready_s", unit: "s", better: "lower"},
		{name: "persist.restored_frac", unit: "ratio", better: "higher"},

		{name: "obs.bare_wall_s", unit: "s", better: "lower"},
		{name: "obs.overhead_frac", unit: "ratio", better: "lower"},

		{name: "collabd.spawn_ready_s", unit: "s", better: "lower"},
		{name: "collabd.peak_rss_mb", unit: "MB", better: "lower"},
		{name: "collabd.cpu_user_s", unit: "s", better: "lower"},
		{name: "collabd.cpu_sys_s", unit: "s", better: "lower"},
		{name: "collabd.io_read_mb", unit: "MB", better: "lower"},
		{name: "collabd.io_write_mb", unit: "MB", better: "lower"},

		{name: "bench.build_s", unit: "s", better: "lower"},
		{name: "bench.naive_wall_s", unit: "s", better: "lower"},
		{name: "bench.speedup_vs_naive", unit: "ratio", better: "higher"},
		{name: "bench.host_factor", unit: "ratio", better: "lower"},
		{name: "bench.raw_wall_s", unit: "s", better: "lower"},
		{name: "bench.traced_wall_s", unit: "s", better: "lower"},
		{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},
	}...)
}()

func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics derives the user-visible numbers of a phase. The times
// are divided by hostFactor, how slowly the host ran the reference work
// during the phase (hostclock.go); setup, in seconds, comes so divided.
func endToEndMetrics(ph *phase, hostFactor, setup float64) map[string]float64 {
	lat := make([]float64, len(ph.steps))
	for i, st := range ph.steps {
		lat[i] = ms(st.latency)
	}
	return map[string]float64{
		"wall_s":      secs(ph.wall) / hostFactor,
		"step_p50_ms": median(lat) / hostFactor,
		"wire_mb":     float64(ph.wireBytes) / 1e6,
		"setup_s":     setup,
	}
}

// clientSelf is the time the runs spent in the client outside Execute and
// outside HTTP: pruning, ToWire, gob encoding of requests and artifact
// bodies. Per run it is the run span minus RunResult.WallTime minus the
// route spans that lie outside Execute. Fetches inside Execute are the
// executor's (one per reused vertex, the last ones of the run); any earlier
// fetch is a warmstart donor download, which happens before Execute.
func clientSelf(spans []span, runs []runRec) time.Duration {
	children := make(map[int][]span)
	for _, sp := range spans {
		if sp.parent >= 0 && sp.end >= 0 {
			children[sp.parent] = append(children[sp.parent], sp)
		}
	}
	var total time.Duration
	for _, rr := range runs {
		run := spans[rr.span]
		if run.run < 0 || run.end < 0 {
			continue
		}
		kids := children[rr.span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		fetches := 0
		for _, k := range kids {
			if k.name == "fetch" {
				fetches++
			}
		}
		donors := fetches - rr.reused
		var outside []span
		for _, k := range kids {
			if k.name == "fetch" {
				if donors <= 0 {
					continue
				}
				donors--
			}
			outside = append(outside, k)
		}
		total += selfTime(run, outside) - rr.execWall
	}
	return total
}

// traceInputs is everything a traced run gathered beyond the phase itself.
type traceInputs struct {
	spans    []span
	runs     []runRec
	cpuSelf  float64
	dirMB    float64
	untraced float64 // wall_s of an untraced run of the same inputs, or absent
	// hostFactor is how slowly the host ran the reference work during the
	// phase. The per-layer times are as the clock gave them; only
	// bench.traced_wall_s is divided by it, like the wall_s it is held to.
	hostFactor float64

	// Reruns of a prefix of the step list, with the prefix length each
	// used (0: not run).
	inprocK, naiveK, bareK          int
	inprocWall, naiveWall, bareWall time.Duration

	persist *persistStats
}

// layerMetrics derives every per-layer metric of a traced run.
func layerMetrics(ph *phase, in traceInputs) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = absent
	}

	// core.client, from RunResult and the clock.
	var execWall, compute, overhead time.Duration
	var executed, reused, warm int
	lat := make([]float64, len(ph.steps))
	maxLat := 0.0
	for i, st := range ph.steps {
		execWall += st.execWall
		compute += st.compute
		overhead += st.optimizeOverhead
		executed += st.executed
		reused += st.reused
		warm += st.warmstarted
		lat[i] = ms(st.latency)
		maxLat = math.Max(maxLat, lat[i])
	}
	m["core.client.steps"] = float64(len(ph.steps))
	m["core.client.exec_wall_s"] = secs(execWall)
	m["core.client.compute_s"] = secs(compute)
	m["core.client.self_s"] = secs(clientSelf(in.spans, in.runs))
	m["core.client.overlap"] = ratio(secs(compute), secs(execWall))
	m["core.client.ops_executed"] = float64(executed)
	m["core.client.vertices_reused"] = float64(reused)
	m["core.client.reuse_ratio"] = ratio(float64(reused), float64(reused+executed))
	m["core.client.warmstarted"] = float64(warm)
	m["core.client.optimize_overhead_s"] = secs(overhead)
	m["core.client.step_p95_ms"] = p95(lat)
	m["core.client.step_max_ms"] = maxLat
	m["core.client.cpu_s"] = in.cpuSelf

	// remote, from the route spans of measured steps.
	type agg struct {
		busy      time.Duration
		req, resp int64
		lat       []float64
	}
	byRoute := make(map[string]*agg)
	failed, diskHits := 0, 0
	for _, sp := range in.spans {
		if sp.run < 0 || sp.end < 0 || sp.name == "run" {
			continue
		}
		a := byRoute[sp.name]
		if a == nil {
			a = &agg{}
			byRoute[sp.name] = a
		}
		a.busy += sp.dur()
		a.req += sp.reqBytes
		a.resp += sp.respBytes
		a.lat = append(a.lat, ms(sp.dur()))
		if sp.status < 200 || sp.status > 299 {
			failed++
		}
		if sp.name == "fetch" && sp.tier == "disk" {
			diskHits++
		}
	}
	for _, r := range routes {
		a := byRoute[r]
		if a == nil {
			a = &agg{}
		}
		m["remote."+r+".count"] = float64(len(a.lat))
		m["remote."+r+".busy_s"] = secs(a.busy)
		m["remote."+r+".req_mb"] = float64(a.req) / 1e6
		m["remote."+r+".resp_mb"] = float64(a.resp) / 1e6
		m["remote."+r+".p95_ms"] = p95(a.lat)
	}
	m["remote.upload.mb_per_s"] = ratio(m["remote.upload.req_mb"], m["remote.upload.busy_s"])
	m["remote.fetch.mb_per_s"] = ratio(m["remote.fetch.resp_mb"], m["remote.fetch.busy_s"])
	m["remote.failed"] = float64(failed)
	if in.inprocK > 0 {
		m["remote.inproc_wall_s"] = secs(in.inprocWall)
		m["remote.http_tax_frac"] = 1 - ratio(secs(in.inprocWall), secs(ph.elapsedAt(in.inprocK)))
	}

	// Server-side layers, from counter deltas summed over the servers
	// that served the phase, and gauges of the last one.
	counter := func(key string) float64 {
		total := 0.0
		for _, w := range ph.windows {
			total += w.counters.counter(key)
		}
		return total
	}
	last := ph.windows[len(ph.windows)-1].counters.after
	const nsPerS = 1e9

	m["core.server.lock_wait_s"] = counter("LockWaitSec")
	m["core.server.lock_hold_s"] = counter("LockHoldSec")
	for _, r := range []string{"optimize", "update", "artifact"} {
		m["core.server.handler_s."+r] = counter(`collab_http_request_seconds_sum{route="/v1/` + r + `"}`)
	}
	m["core.server.optimize_busy_s"] = counter("collab_optimize_seconds_sum")

	m["reuse.plan_s"] = counter("PlanTime") / nsPerS
	m["reuse.planned_loads"] = counter("ReusePlanned")
	m["reuse.pruned_by_cost"] = counter("PlanPrunedByCost")
	m["reuse.warmstarts_proposed"] = counter("WarmstartsProposed")

	m["materialize.select_s"] = counter("MatTime") / nsPerS
	m["materialize.runs"] = counter("collab_materialize_runs_total")
	if n := len(ph.steps); len(ph.marks) == 2 {
		perRun := func(from, to scrape) float64 {
			d := scrapeDelta{before: from, after: to}
			return ratio(d.counter("MatTime")/1e6, d.counter("collab_materialize_runs_total"))
		}
		w := ph.windows[0].counters
		m["materialize.select_ms_per_run_first100"] = perRun(w.before, ph.marks[100])
		m["materialize.select_ms_per_run_last100"] = perRun(ph.marks[n-100], w.after)
	}

	m["eg.vertices"] = last.gauge("Vertices")
	m["eg.materialized"] = last.gauge("Materialized")

	m["store.puts"] = counter("collab_store_puts_total")
	m["store.get_hits"] = counter("collab_store_get_hits_total")
	m["store.get_misses"] = counter("collab_store_get_misses_total")
	m["store.hit_ratio"] = ratio(m["store.get_hits"], m["store.get_hits"]+m["store.get_misses"])
	m["store.evictions"] = counter("collab_store_evictions_total")
	m["store.logical_mb"] = last.gauge("LogicalBytes") / 1e6
	m["store.physical_mb"] = last.gauge("PhysicalBytes") / 1e6
	m["store.dedup_ratio"] = ratio(m["store.logical_mb"], m["store.physical_mb"])
	m["store.lock_wait_s"] = counter("StoreLockWaitSec")

	var cpuUser, cpuSys, ioRead, ioWrite, peak float64
	var ready []float64
	for _, w := range ph.windows {
		cpuUser += w.procTo.cpuUser - w.procFrom.cpuUser
		cpuSys += w.procTo.cpuSys - w.procFrom.cpuSys
		ioRead += w.procTo.ioRead - w.procFrom.ioRead
		ioWrite += w.procTo.ioWritten - w.procFrom.ioWritten
		peak = math.Max(peak, w.procTo.peakRSS)
		ready = append(ready, secs(w.readyIn))
	}
	m["collabd.spawn_ready_s"] = median(ready)
	m["collabd.peak_rss_mb"] = peak
	m["collabd.cpu_user_s"] = cpuUser
	m["collabd.cpu_sys_s"] = cpuSys
	m["collabd.io_read_mb"] = ioRead
	m["collabd.io_write_mb"] = ioWrite

	// Demotions are counted since the last server started, not across the
	// phase: on the tiered workload memory pressure builds up while the
	// budgeted server is primed, and the phase's own uploads are small.
	m["tier.demotions"] = last.gauge("collab_store_demotions_total")
	m["tier.promotions"] = counter("collab_store_promotions_total")
	// The server answers collaborators through Peek, which its own
	// disk-hit counter does not see; the tier header on each fetch
	// response is the outside view of the same event.
	m["tier.disk_hits"] = float64(diskHits)
	m["tier.disk_evictions"] = counter("collab_store_disk_evictions_total")
	m["tier.disk_mb"] = last.gauge("DiskBytes") / 1e6
	m["tier.dir_mb"] = in.dirMB
	m["tier.write_amp"] = ratio(ioWrite, m["remote.upload.req_mb"])

	if in.persist != nil {
		m["persist.shutdown_save_s"] = secs(in.persist.shutdownSave)
		m["persist.snapshot_mb"] = in.persist.snapshotMB
		m["persist.restore_ready_s"] = secs(in.persist.restoreReady)
		m["persist.restored_frac"] = in.persist.restoredFrac
	}
	if in.bareK > 0 {
		m["obs.bare_wall_s"] = secs(in.bareWall)
		m["obs.overhead_frac"] = 1 - ratio(secs(in.bareWall), secs(ph.elapsedAt(in.bareK)))
	}

	if in.naiveK > 0 {
		m["bench.naive_wall_s"] = secs(in.naiveWall)
		m["bench.speedup_vs_naive"] = ratio(secs(in.naiveWall), secs(ph.elapsedAt(in.naiveK)))
	}
	m["bench.host_factor"] = in.hostFactor
	m["bench.raw_wall_s"] = secs(ph.wall)
	m["bench.traced_wall_s"] = secs(ph.wall) / in.hostFactor
	m["bench.trace_overhead_frac"] = ratio(m["bench.traced_wall_s"]-in.untraced, in.untraced)
	return m
}
