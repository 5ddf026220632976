package main

import "fmt"

// guardResult is the verdict of one workload-does-what-it-says check.
type guardResult struct {
	Workload string `json:"workload"`
	Verdict  string `json:"verdict"` // PASS, FAIL, or SKIP when another workload's numbers are needed
	Detail   string `json:"detail"`
}

// evalGuards checks, from traced per-layer metrics keyed by workload, that
// each workload stresses the layer it was built to stress. A guard whose
// workload is not in the map is left out; one that compares against a
// workload not in the map is skipped.
func evalGuards(traced map[string]map[string]float64) []guardResult {
	var out []guardResult
	verdict := func(workload string, ok bool, format string, args ...any) {
		v := "FAIL"
		if ok {
			v = "PASS"
		}
		out = append(out, guardResult{workload, v, fmt.Sprintf(format, args...)})
	}
	skip := func(workload, needs string) {
		out = append(out, guardResult{workload, "SKIP", "needs a traced run of " + needs})
	}

	if m, ok := traced["kaggle_cold"]; ok {
		ship := m["remote.upload.busy_s"] + m["remote.update.busy_s"] + m["core.client.self_s"]
		exec := m["core.client.exec_wall_s"]
		plan := m["remote.optimize.busy_s"]
		verdict("kaggle_cold", ship > exec && ship > plan,
			"upload+update+client self %.2fs vs execute %.2fs vs optimize %.2fs of %.2fs wall",
			ship, exec, plan, m["bench.raw_wall_s"])
	}
	if m, ok := traced["kaggle_variants"]; ok {
		perStep := ratio(m["remote.fetch.resp_mb"], 0.9*m["core.client.steps"])
		tier := m["tier.demotions"] + m["tier.promotions"] + m["tier.disk_hits"] + m["tier.disk_evictions"]
		verdict("kaggle_variants", perStep >= 0.75 && tier == 0,
			"%.2f MB fetched per non-repeat step (want >= 0.75), tier events %.0f (want 0)", perStep, tier)
		if cold, ok := traced["kaggle_cold"]; ok {
			perPass := ratio(cold["remote.upload.req_mb"], cold["core.client.steps"])
			verdict("kaggle_variants", m["remote.upload.req_mb"] < 0.05*perPass,
				"uploads %.2f MB vs %.2f MB per kaggle_cold pass (want < 5%%)", m["remote.upload.req_mb"], perPass)
		} else {
			skip("kaggle_variants", "kaggle_cold")
		}
	}
	if m, ok := traced["tiered_variants"]; ok {
		verdict("tiered_variants", m["tier.disk_hits"] > 0 && m["tier.demotions"] > 0,
			"disk hits %.0f, demotions %.0f (want both > 0)", m["tier.disk_hits"], m["tier.demotions"])
	}
	if m, ok := traced["openml_stream"]; ok {
		first, last := m["materialize.select_ms_per_run_first100"], m["materialize.select_ms_per_run_last100"]
		verdict("openml_stream", last > first,
			"materializer %.3f ms/run over the last 100 steps vs %.3f over the first 100 (want growth)", last, first)
	}
	if m, ok := traced["shared_2c"]; ok {
		if one, ok := traced["openml_stream"]; ok {
			verdict("shared_2c", m["core.server.lock_wait_s"] > 10*one["core.server.lock_wait_s"],
				"server lock wait %.3fs vs %.3fs with one client (want > 10x)",
				m["core.server.lock_wait_s"], one["core.server.lock_wait_s"])
		} else {
			skip("shared_2c", "openml_stream")
		}
	}
	return out
}
