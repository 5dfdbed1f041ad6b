package selector

import (
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/iselib"
	"mrts/internal/profit"
)

// referenceGreedy is the Fig. 6 loop with no profit memo, no pooling and no
// incremental invalidation: every round recomputes every surviving
// candidate from scratch. It is the semantic reference the incremental
// Greedy must match result-for-result and counter-for-counter (except
// SavedEvaluations, which only the incremental version reports).
func referenceGreedy(q Request) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	var (
		res Result
		ps  profit.Scratch
	)
	st := new(refState)
	st.reset(q.Fabric)
	cands := refGatherCandidates(q)

	for len(cands) > 0 {
		res.Rounds++

		fitting := cands[:0]
		for _, c := range cands {
			if st.fits(c.e) {
				fitting = append(fitting, c)
			}
		}
		cands = fitting
		if len(cands) == 0 {
			break
		}

		covered := -1
		for i, c := range cands {
			if !st.covered(c.e) {
				continue
			}
			if covered < 0 ||
				c.e.FullLatency() < cands[covered].e.FullLatency() ||
				(c.e.FullLatency() == cands[covered].e.FullLatency() && c.e.ID < cands[covered].e.ID) {
				covered = i
			}
		}
		if covered >= 0 {
			picked := cands[covered]
			st.claim(picked.e)
			res.CoveredPicks++
			res.Selected = append(res.Selected, Choice{
				Kernel: picked.kernel.ID,
				ISE:    picked.e,
				Profit: refProfit(&ps, picked.kernel, picked.e, st, picked.params, q.Model),
			})
			cands = dropKernel(cands, picked.kernel.ID)
			continue
		}

		firstRound := res.Rounds == 1
		best := -1
		bestProfit := 0.0
		for i, c := range cands {
			p := refProfit(&ps, c.kernel, c.e, st, c.params, q.Model)
			res.Evaluations++
			if firstRound {
				res.FirstRoundEvaluations++
			}
			if p <= 0 {
				continue
			}
			if best < 0 || p > bestProfit || (p == bestProfit && c.e.ID < cands[best].e.ID) {
				best, bestProfit = i, p
			}
		}
		if best < 0 {
			break
		}
		chosen := cands[best]
		st.claim(chosen.e)
		res.Selected = append(res.Selected, Choice{
			Kernel: chosen.kernel.ID,
			ISE:    chosen.e,
			Profit: bestProfit,
		})
		cands = dropKernel(cands, chosen.kernel.ID)
	}
	return res, nil
}

func dropKernel(cands []refCand, id ise.KernelID) []refCand {
	next := cands[:0]
	for _, c := range cands {
		if c.kernel.ID != id {
			next = append(next, c)
		}
	}
	return next
}

// preloadedFabric is a base view with configured data paths and port
// backlogs, so the equivalence sweep also covers warm-fabric selections.
type preloadedFabric struct {
	prc, cg    int
	configured map[ise.DataPathID]bool
	fg, cgPort arch.Cycles
}

func (f preloadedFabric) FreePRC() int                        { return f.prc }
func (f preloadedFabric) FreeCG() int                         { return f.cg }
func (f preloadedFabric) IsConfigured(id ise.DataPathID) bool { return f.configured[id] }
func (f preloadedFabric) PortBacklog(k arch.FabricKind) arch.Cycles {
	if k == arch.FG {
		return f.fg
	}
	return f.cgPort
}

// TestGreedyIncrementalMatchesReference sweeps synthetic blocks of many
// shapes, every cost model and several fabric states, asserting the
// incremental Greedy is indistinguishable from the from-scratch reference:
// same selections, same profits, same evaluation/round counters.
func TestGreedyIncrementalMatchesReference(t *testing.T) {
	models := []profit.Model{profit.Multigrained, profit.FGTuned, profit.PortBlind}
	for seed := uint64(1); seed <= 20; seed++ {
		nK := int(2 + seed%5)
		nI := int(2 + seed%4)
		blk, trig := iselib.GenerateBlock("fp", nK, nI, seed)

		var someDPs map[ise.DataPathID]bool
		if len(blk.Kernels) > 0 && len(blk.Kernels[0].ISEs) > 0 {
			someDPs = map[ise.DataPathID]bool{}
			for _, d := range blk.Kernels[0].ISEs[len(blk.Kernels[0].ISEs)-1].DataPaths {
				someDPs[d.ID] = true
			}
		}
		fabrics := []ise.FabricView{
			ise.EmptyFabric{PRC: 1, CG: 1},
			ise.EmptyFabric{PRC: 3, CG: 3},
			ise.EmptyFabric{PRC: 8, CG: 8},
			preloadedFabric{prc: 3, cg: 3, configured: someDPs, fg: 1200, cgPort: 90},
		}
		for _, m := range models {
			for fi, fab := range fabrics {
				q := Request{Block: blk, Triggers: trig, Fabric: fab, Model: m}
				got, err := Greedy(q)
				if err != nil {
					t.Fatalf("seed %d model %d fabric %d: Greedy: %v", seed, m, fi, err)
				}
				want, err := referenceGreedy(q)
				if err != nil {
					t.Fatalf("seed %d model %d fabric %d: reference: %v", seed, m, fi, err)
				}
				if len(got.Selected) != len(want.Selected) {
					t.Fatalf("seed %d model %d fabric %d: selected %d ISEs, reference %d",
						seed, m, fi, len(got.Selected), len(want.Selected))
				}
				for i := range want.Selected {
					g, w := got.Selected[i], want.Selected[i]
					if g.Kernel != w.Kernel || g.ISE != w.ISE || g.Profit != w.Profit {
						t.Errorf("seed %d model %d fabric %d: choice %d = %v/%s/%v, reference %v/%s/%v",
							seed, m, fi, i, g.Kernel, g.ISE.ID, g.Profit, w.Kernel, w.ISE.ID, w.Profit)
					}
				}
				if got.Evaluations != want.Evaluations ||
					got.FirstRoundEvaluations != want.FirstRoundEvaluations ||
					got.Rounds != want.Rounds ||
					got.CoveredPicks != want.CoveredPicks {
					t.Errorf("seed %d model %d fabric %d: counters (eval %d first %d rounds %d covered %d), reference (%d %d %d %d)",
						seed, m, fi,
						got.Evaluations, got.FirstRoundEvaluations, got.Rounds, got.CoveredPicks,
						want.Evaluations, want.FirstRoundEvaluations, want.Rounds, want.CoveredPicks)
				}
				if got.SavedEvaluations < 0 || got.SavedEvaluations > got.Evaluations {
					t.Errorf("seed %d model %d fabric %d: SavedEvaluations %d out of range (evals %d)",
						seed, m, fi, got.SavedEvaluations, got.Evaluations)
				}
			}
		}
	}
}

// TestGreedyCoveredPickCounters pins Fig. 6 Step 2b accounting: an ISE
// fully covered by a previous choice is selected without a profit
// evaluation and counted in CoveredPicks only.
func TestGreedyCoveredPickCounters(t *testing.T) {
	shared := ise.DataPath{ID: "sh", Kind: arch.CG, CGs: 1}
	a := &ise.Kernel{
		ID: "a", RISCLatency: 1000,
		ISEs: []*ise.ISE{{ID: "a.x", Kernel: "a", DataPaths: []ise.DataPath{shared}, Latencies: []arch.Cycles{100}}},
	}
	b := &ise.Kernel{
		ID: "b", RISCLatency: 500,
		ISEs: []*ise.ISE{{ID: "b.x", Kernel: "b", DataPaths: []ise.DataPath{shared}, Latencies: []arch.Cycles{200}}},
	}
	blk := &ise.FunctionalBlock{ID: "cov", Kernels: []*ise.Kernel{a, b}}
	res, err := Greedy(Request{
		Block: blk,
		Triggers: []ise.Trigger{
			{Kernel: "a", E: 1000, TF: 100, TB: 50},
			{Kernel: "b", E: 500, TF: 100, TB: 50},
		},
		Fabric: ise.EmptyFabric{CG: 1},
		Model:  profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %d ISEs, want 2 (b.x is covered by a.x's data path)", len(res.Selected))
	}
	if res.Selected[0].ISE.ID != "a.x" || res.Selected[1].ISE.ID != "b.x" {
		t.Fatalf("selection order = %s, %s; want a.x then covered b.x",
			res.Selected[0].ISE.ID, res.Selected[1].ISE.ID)
	}
	if res.CoveredPicks != 1 {
		t.Errorf("CoveredPicks = %d, want 1", res.CoveredPicks)
	}
	// Round 1 evaluates both candidates; the covered pick in round 2 must
	// not count as an evaluation (that was the double-counting bug).
	if res.Evaluations != 2 {
		t.Errorf("Evaluations = %d, want 2 (covered pick must not count)", res.Evaluations)
	}
	if res.FirstRoundEvaluations != 2 {
		t.Errorf("FirstRoundEvaluations = %d, want 2", res.FirstRoundEvaluations)
	}
	if res.Selected[1].Profit <= 0 {
		t.Errorf("covered pick should still report its profit, got %v", res.Selected[1].Profit)
	}
}

// TestGreedySavedEvaluations pins the incremental memo: candidates whose
// profit inputs a claim did not touch are served from the memo in later
// rounds and reported in SavedEvaluations.
func TestGreedySavedEvaluations(t *testing.T) {
	mk := func(id string, risc arch.Cycles, dp ise.DataPath, lat arch.Cycles) *ise.Kernel {
		return &ise.Kernel{
			ID: ise.KernelID(id), RISCLatency: risc,
			ISEs: []*ise.ISE{{ID: id + ".x", Kernel: ise.KernelID(id),
				DataPaths: []ise.DataPath{dp}, Latencies: []arch.Cycles{lat}}},
		}
	}
	f := mk("f", 2000, ise.DataPath{ID: "f1", Kind: arch.FG, PRCs: 1}, 100)
	c1 := mk("c1", 800, ise.DataPath{ID: "c1", Kind: arch.CG, CGs: 1}, 100)
	c2 := mk("c2", 700, ise.DataPath{ID: "c2", Kind: arch.CG, CGs: 1}, 100)
	blk := &ise.FunctionalBlock{ID: "mem", Kernels: []*ise.Kernel{f, c1, c2}}
	res, err := Greedy(Request{
		Block: blk,
		Triggers: []ise.Trigger{
			{Kernel: "f", E: 1000, TF: 100, TB: 50},
			{Kernel: "c1", E: 500, TF: 100, TB: 50},
			{Kernel: "c2", E: 400, TF: 100, TB: 50},
		},
		Fabric: ise.EmptyFabric{PRC: 1, CG: 2},
		Model:  profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 3 {
		t.Fatalf("selected %d ISEs, want 3", len(res.Selected))
	}
	if res.Selected[0].Kernel != "f" {
		t.Fatalf("round 1 winner = %s, want f", res.Selected[0].Kernel)
	}
	// Round 1: 3 evaluations. Claiming f's FG data path queues only the FG
	// port, so the two CG-only candidates stay valid: round 2's 2
	// evaluations are both memo hits. Claiming the round-2 winner queues
	// the CG port, invalidating the last candidate: round 3 recomputes.
	if res.Evaluations != 6 {
		t.Errorf("Evaluations = %d, want 6", res.Evaluations)
	}
	if res.SavedEvaluations != 2 {
		t.Errorf("SavedEvaluations = %d, want 2 (both CG candidates in round 2)", res.SavedEvaluations)
	}
	if res.FirstRoundEvaluations != 3 {
		t.Errorf("FirstRoundEvaluations = %d, want 3", res.FirstRoundEvaluations)
	}
}
