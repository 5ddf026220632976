package materialize

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/eg/egtest"
	"repro/internal/workloads/synth"
)

// The reference strategies: the selection code as it was while every call
// derived Cr and p for the whole graph, reading egtest's from-scratch
// derivation. The strategies must select the same IDs in the same order.

func refCandidates(c Config, g *eg.Graph) []candidate {
	cr := egtest.RecreationCosts(g)
	pot := egtest.Potentials(g)
	var cands []candidate
	var sumP, sumR float64
	type raw struct {
		v    *eg.Vertex
		p, r float64
	}
	var raws []raw
	for _, v := range g.Vertices() {
		if !eligible(v) {
			continue
		}
		crv := cr[v.ID]
		cl := c.Profile.LoadCost(v.SizeBytes)
		if cl >= crv {
			continue
		}
		sz := v.SizeBytes
		if sz <= 0 {
			sz = 1
		}
		rcs := float64(v.Frequency) * crv.Seconds() / (float64(sz) / (1 << 20))
		p := pot[v.ID]
		raws = append(raws, raw{v, p, rcs})
		sumP += p
		sumR += rcs
	}
	a := c.alpha()
	for _, r := range raws {
		var u float64
		if sumP > 0 {
			u += a * r.p / sumP
		}
		if sumR > 0 {
			u += (1 - a) * r.r / sumR
		}
		cands = append(cands, candidate{r.v, u, r.r})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].utility != cands[j].utility {
			return cands[i].utility > cands[j].utility
		}
		if cands[i].rcs != cands[j].rcs {
			return cands[i].rcs > cands[j].rcs
		}
		return cands[i].v.ID < cands[j].v.ID
	})
	return cands
}

func refGreedy(c Config, g *eg.Graph, budget int64) []string {
	var out []string
	var used int64
	for _, cand := range refCandidates(c, g) {
		if used+cand.v.SizeBytes <= budget {
			out = append(out, cand.v.ID)
			used += cand.v.SizeBytes
		}
	}
	return out
}

func refStorageAware(c Config, g *eg.Graph, budget int64) []string {
	selected := make(map[string]bool)
	var order []string
	cands := refCandidates(c, g)
	for {
		remaining := budget - g.DedupedSize(order)
		if remaining <= 0 {
			break
		}
		added := 0
		var used int64
		for _, cand := range cands {
			if selected[cand.v.ID] {
				continue
			}
			if used+cand.v.SizeBytes <= remaining {
				selected[cand.v.ID] = true
				order = append(order, cand.v.ID)
				used += cand.v.SizeBytes
				added++
			}
		}
		if added == 0 {
			break
		}
	}
	return order
}

func refHelix(c Config, g *eg.Graph, budget int64) []string {
	cr := egtest.RecreationCosts(g)
	var out []string
	var used int64
	for _, id := range g.TopoOrder() {
		v := g.Vertex(id)
		if v == nil || !eligible(v) {
			continue
		}
		if cr[id] <= 2*c.Profile.LoadCost(v.SizeBytes) {
			continue
		}
		if used+v.SizeBytes > budget {
			break
		}
		out = append(out, id)
		used += v.SizeBytes
	}
	return out
}

func refAll(g *eg.Graph) []string {
	var out []string
	for _, id := range g.TopoOrder() {
		if eligible(g.Vertex(id)) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// refDelta is what a run with the given selection changes on g: the selected
// vertices that are not held, in selection order, and the eligible ones that
// are and are not selected, by ID.
func refDelta(g *eg.Graph, held map[string]bool, selected []string) (admitted, dropped []string) {
	in := make(map[string]bool, len(selected))
	for _, id := range selected {
		in[id] = true
		if !held[id] {
			admitted = append(admitted, id)
		}
	}
	for _, v := range g.Vertices() {
		if eligible(v) && held[v.ID] && !in[v.ID] {
			dropped = append(dropped, v.ID)
		}
	}
	return admitted, dropped
}

// TestStrategiesSelectAsFromScratch drives every strategy over the
// sequences of the graph's own exactness test (overlapping workloads,
// re-executed vertices, prunes, snapshot round trips, vertices whose content
// is stored and dropped) and demands, after every step, the selection the
// reference code makes from the from-scratch derivation: same IDs, same
// order, and what it changes against what is held. The budgets straddle the
// point where every candidate fits (total ± 1), where the strategies skip
// their ranking, and every run of a sequence shares one Scratch, as the
// updater's do. HL is also run on a graph restored from a snapshot, whose
// maintained order differs from the live one's: its root-first scan must not
// see the difference.
func TestStrategiesSelectAsFromScratch(t *testing.T) {
	profiles := []cost.Profile{cost.Memory(), cost.Disk(), cost.Remote()}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := synth.NewUniverse(seed, 30+rng.Intn(220))
		c := Config{Alpha: []float64{0.5, 0.001, 1}[rng.Intn(3)], Profile: profiles[rng.Intn(3)]}
		g := eg.New()
		sc := new(Scratch)
		stored := make(map[string]bool)
		held := func(id string) bool { return stored[id] }
		for step := 0; step < 40; step++ {
			switch r := rng.Intn(10); {
			case r == 0:
				g.Prune(eg.PrunePolicy{MaxIdleWorkloads: 1 + rng.Intn(4), MinFrequency: rng.Intn(3)}, held)
			case r == 1:
				g = eg.FromSnapshot(g.Snapshot())
			case r == 2:
				vs := g.Vertices()
				for i := 0; i < len(vs)/4; i++ {
					stored[vs[rng.Intn(len(vs))].ID] = rng.Intn(2) == 0
				}
			default:
				g.Merge(u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())))
			}
			var total int64
			for _, cand := range refCandidates(c, g) {
				total += cand.v.SizeBytes
			}
			restored := eg.FromSnapshot(g.Snapshot())
			k := rng.Intn(4)
			for _, budget := range []int64{0, total - 1, total, total + 1, int64(rng.Intn(24 << 20))} {
				greedy := refGreedy(c, g, budget)
				for _, check := range []struct {
					name     string
					strategy Strategy
					g        *eg.Graph
					want     []string
				}{
					{"HM", NewGreedy(c), g, greedy},
					{"SA", NewStorageAware(c), g, refStorageAware(c, g, budget)},
					{"HL", NewHelix(c), g, refHelix(c, g, budget)},
					{"ALL", NewAll(), g, refAll(g)},
					{"HL restored", NewHelix(c), restored, refHelix(c, g, budget)},
					{"LimitCount HM", LimitCount{Inner: NewGreedy(c), K: k}, g, greedy[:min(k, len(greedy))]},
				} {
					run := check.strategy.Select(check.g, held, budget, false, sc)
					got := run.SelectedIDs()
					admitted, dropped := refDelta(check.g, stored, check.want)
					if !slices.Equal(got, check.want) || run.Selected != len(got) ||
						!slices.Equal(run.Admitted, admitted) || !slices.Equal(run.Dropped, dropped) {
						t.Errorf("seed %d, step %d, %s (α=%v, budget %d of %d): selected %d, reference %d\n got %v\nwant %v\nadmitted %v, reference %v\ndropped %v, reference %v",
							seed, step, check.name, c.Alpha, budget, total, len(got), len(check.want), got, check.want,
							run.Admitted, admitted, run.Dropped, dropped)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
