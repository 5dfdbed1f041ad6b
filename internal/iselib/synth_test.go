package iselib

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mrts/internal/ise"
	"mrts/internal/profit"
	"mrts/internal/selector"
)

func TestGenerateKernelValidates(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		k := GenerateKernel("synth", int(n%64)+1, seed)
		return k.Validate() == nil
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestGenerateKernelDeterministic(t *testing.T) {
	a := GenerateKernel("k", 20, 42)
	b := GenerateKernel("k", 20, 42)
	if len(a.ISEs) != len(b.ISEs) || a.RISCLatency != b.RISCLatency {
		t.Fatal("generation not deterministic")
	}
	for i := range a.ISEs {
		if a.ISEs[i].FullLatency() != b.ISEs[i].FullLatency() {
			t.Fatal("ISE latencies not deterministic")
		}
	}
}

func TestGenerateKernelSharesDataPaths(t *testing.T) {
	k := GenerateKernel("k", 30, 7)
	seen := map[ise.DataPathID]int{}
	for _, e := range k.ISEs {
		for _, d := range e.DataPaths {
			seen[d.ID]++
		}
	}
	shared := 0
	for _, n := range seen {
		if n > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Error("30 candidates share no data path — unrealistic library")
	}
}

func TestGenerateBlockValidates(t *testing.T) {
	blk, triggers := GenerateBlock("b", 6, 20, 1)
	if err := blk.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(triggers) != 6 {
		t.Fatalf("triggers = %d", len(triggers))
	}
	for _, tr := range triggers {
		if err := tr.Validate(); err != nil {
			t.Error(err)
		}
		if blk.Kernel(tr.Kernel) == nil {
			t.Errorf("trigger for unknown kernel %s", tr.Kernel)
		}
	}
}

func TestCombinationsMatchesPaperScale(t *testing.T) {
	// The paper reports more than 78 million combinations for six H.264
	// kernels; six synthetic kernels with 20 candidates each exceed it.
	blk, _ := GenerateBlock("b", 6, 20, 1)
	if got := Combinations(blk); got < 78e6 {
		t.Errorf("combination space = %.0f, want > 78e6", got)
	}
}

// TestGreedyScalesToPaperSizes exercises the Fig. 6 heuristic on the
// paper's extreme library sizes: 6 kernels x 60 ISEs (O(N*M) per round)
// must finish in well under the millisecond range per selection, even
// though the nominal combination space is astronomically large.
func TestGreedyScalesToPaperSizes(t *testing.T) {
	blk, triggers := GenerateBlock("big", 6, 60, 3)
	req := selector.Request{
		Block:    blk,
		Triggers: triggers,
		Fabric:   ise.EmptyFabric{PRC: 4, CG: 4},
		Model:    profit.Multigrained,
	}
	start := time.Now()
	res, err := selector.Greedy(req)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 50*time.Millisecond {
		t.Errorf("greedy took %v on 6x60", elapsed)
	}
	// Evaluation count stays polynomial: at most N rounds x N*M
	// candidates.
	if res.Evaluations > 6*6*60 {
		t.Errorf("evaluations = %d, exceeds N^2*M bound", res.Evaluations)
	}
	if len(res.Selected) == 0 {
		t.Error("nothing selected from a rich library")
	}
}

// TestOptimalPrunesCombinationSpace verifies that branch-and-bound
// explores a vanishing fraction of the nominal combination space.
func TestOptimalPrunesCombinationSpace(t *testing.T) {
	blk, triggers := GenerateBlock("med", 5, 12, 9)
	req := selector.Request{
		Block:    blk,
		Triggers: triggers,
		Fabric:   ise.EmptyFabric{PRC: 3, CG: 3},
		Model:    profit.Multigrained,
	}
	res, err := selector.Optimal(req)
	if err != nil {
		t.Fatal(err)
	}
	nominal := Combinations(blk) // 13^5 = 371k
	if float64(res.Rounds) > nominal/10 {
		t.Errorf("explored %d nodes of %.0f nominal — pruning ineffective", res.Rounds, nominal)
	}
	// And it must still beat or match the greedy heuristic.
	g, err := selector.Greedy(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalProfit() < g.TotalProfit()-1e-6 {
		t.Errorf("optimal profit %v below greedy %v", res.TotalProfit(), g.TotalProfit())
	}
}

// TestGreedyHogsPRCsLikeThePaper reproduces the paper's Fig. 9 worst-case
// anecdote at the selection level: on a PRC-only budget of 4, the greedy
// heuristic "often assigns 3 out of 4 PRCs to one kernel, while the
// optimal algorithm shares them equally between the two most important
// kernels".
func TestGreedyHogsPRCsLikeThePaper(t *testing.T) {
	app := MustNewApplication()
	me := app.Block("me")
	triggers := []ise.Trigger{
		{Kernel: "sad", E: 3000, TF: 3000, TB: 900},
		{Kernel: "satd", E: 1500, TF: 4000, TB: 1200},
		{Kernel: "ipred", E: 1500, TF: 5000, TB: 1200},
	}
	req := selector.Request{
		Block:    me,
		Triggers: triggers,
		Fabric:   ise.EmptyFabric{PRC: 4, CG: 0},
		Model:    profit.Multigrained,
	}
	g, err := selector.Greedy(req)
	if err != nil {
		t.Fatal(err)
	}
	if sel := g.ByKernel("sad"); sel == nil || sel.CostPRC() != 3 {
		t.Fatalf("greedy did not give 3 PRCs to the dominant kernel: %v", g.Selected)
	}
	o, err := selector.Optimal(req)
	if err != nil {
		t.Fatal(err)
	}
	if sel := o.ByKernel("sad"); sel == nil || sel.CostPRC() != 2 {
		t.Fatalf("optimal should split the PRCs (2 for sad): %v", o.Selected)
	}
	if len(o.Selected) <= len(g.Selected) {
		t.Errorf("optimal accelerates %d kernels, greedy %d — expected the split to serve more kernels",
			len(o.Selected), len(g.Selected))
	}
	if o.TotalProfit() <= g.TotalProfit() {
		t.Error("optimal profit should exceed the greedy's in the hog scenario")
	}
}
