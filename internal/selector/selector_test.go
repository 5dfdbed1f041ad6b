package selector

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/profit"
)

func fgDP(id string) ise.DataPath {
	return ise.DataPath{ID: ise.DataPathID(id), Kind: arch.FG, PRCs: 1}
}
func cgDP(id string) ise.DataPath {
	return ise.DataPath{ID: ise.DataPathID(id), Kind: arch.CG, CGs: 1}
}

// twoKernelBlock builds a block where kernel "big" dominates the profit and
// kernel "small" needs the leftovers.
func twoKernelBlock() *ise.FunctionalBlock {
	big := &ise.Kernel{
		ID: "big", RISCLatency: 1000,
		ISEs: []*ise.ISE{
			{ID: "big.cg1", Kernel: "big", DataPaths: []ise.DataPath{cgDP("b1")}, Latencies: []arch.Cycles{200}},
			{ID: "big.cg2", Kernel: "big", DataPaths: []ise.DataPath{cgDP("b1"), cgDP("b2")}, Latencies: []arch.Cycles{200, 120}},
			{ID: "big.fg1", Kernel: "big", DataPaths: []ise.DataPath{fgDP("bf")}, Latencies: []arch.Cycles{150}},
		},
	}
	small := &ise.Kernel{
		ID: "small", RISCLatency: 400,
		ISEs: []*ise.ISE{
			{ID: "small.cg1", Kernel: "small", DataPaths: []ise.DataPath{cgDP("s1")}, Latencies: []arch.Cycles{100}},
			{ID: "small.fg1", Kernel: "small", DataPaths: []ise.DataPath{fgDP("sf")}, Latencies: []arch.Cycles{80}},
		},
	}
	return &ise.FunctionalBlock{ID: "blk", Kernels: []*ise.Kernel{big, small}}
}

func triggers() []ise.Trigger {
	return []ise.Trigger{
		{Kernel: "big", E: 1000, TF: 100, TB: 50},
		{Kernel: "small", E: 500, TF: 200, TB: 80},
	}
}

func TestGreedyBasicSelection(t *testing.T) {
	blk := twoKernelBlock()
	res, err := Greedy(Request{
		Block:    blk,
		Triggers: triggers(),
		Fabric:   ise.EmptyFabric{PRC: 2, CG: 2},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %d ISEs, want 2", len(res.Selected))
	}
	if res.ByKernel("big") == nil || res.ByKernel("small") == nil {
		t.Error("both kernels should get an ISE")
	}
	if res.Evaluations == 0 || res.Rounds == 0 {
		t.Error("evaluation counters not maintained")
	}
	if res.FirstRoundEvaluations == 0 || res.FirstRoundEvaluations > res.Evaluations {
		t.Errorf("FirstRoundEvaluations = %d (total %d)", res.FirstRoundEvaluations, res.Evaluations)
	}
}

func TestGreedyPriorityOrder(t *testing.T) {
	// The first selected ISE must belong to the kernel with the larger
	// profit ("the ISE with the maximum profit is selected first",
	// Fig. 6).
	res, err := Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: triggers(),
		Fabric:   ise.EmptyFabric{PRC: 2, CG: 2},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected[0].Kernel != "big" {
		t.Errorf("first selection = %s, want big (max profit first)", res.Selected[0].Kernel)
	}
	if res.Selected[0].Profit < res.Selected[1].Profit {
		t.Error("selection order must be by decreasing profit")
	}
}

func TestGreedyOneISEPerKernel(t *testing.T) {
	res, err := Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: triggers(),
		Fabric:   ise.EmptyFabric{PRC: 4, CG: 4},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ise.KernelID]int{}
	for _, c := range res.Selected {
		seen[c.Kernel]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("kernel %s selected %d times", k, n)
		}
	}
}

func TestGreedyRespectsResources(t *testing.T) {
	// With zero fabric nothing can be selected.
	res, err := Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: triggers(),
		Fabric:   ise.EmptyFabric{},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected %d ISEs with zero fabric", len(res.Selected))
	}

	// With 1 CG only, the two kernels compete; exactly one 1-CG ISE may
	// win and no FG ISE may appear.
	res, err = Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: triggers(),
		Fabric:   ise.EmptyFabric{CG: 1},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d ISEs with 1 CG, want 1", len(res.Selected))
	}
	if got := res.Selected[0].ISE; got.CostCG() > 1 || got.CostPRC() > 0 {
		t.Errorf("selected %s exceeds fabric", got.ID)
	}
}

func TestGreedyZeroExecutionsSelectsNothing(t *testing.T) {
	res, err := Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: []ise.Trigger{{Kernel: "big", E: 0}, {Kernel: "small", E: 0}},
		Fabric:   ise.EmptyFabric{PRC: 4, CG: 4},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 0 {
		t.Errorf("selected %d ISEs for zero forecast executions", len(res.Selected))
	}
}

func TestGreedyCoveredRule(t *testing.T) {
	// big.cg2's data paths are already configured: it must be selected
	// outright (Fig. 6 Step 2b), leaving room for small.
	fab := coveredFabric{prc: 0, cg: 2, configured: map[ise.DataPathID]bool{"b1": true, "b2": true}}
	res, err := Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: triggers(),
		Fabric:   fab,
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ByKernel("big"); got == nil || got.ID != "big.cg2" {
		t.Fatalf("covered ISE big.cg2 not selected, got %v", res.Selected)
	}
	// Capacity accounting: big.cg2 occupies both CG-EDPEs even though
	// they are configured, so small gets nothing.
	if res.ByKernel("small") != nil {
		t.Error("small selected although covered ISE occupies all fabric")
	}
}

type coveredFabric struct {
	prc, cg    int
	configured map[ise.DataPathID]bool
}

func (f coveredFabric) FreePRC() int                       { return f.prc }
func (f coveredFabric) FreeCG() int                        { return f.cg }
func (f coveredFabric) IsConfigured(d ise.DataPathID) bool { return f.configured[d] }

func TestGreedyValidatesRequest(t *testing.T) {
	_, err := Greedy(Request{
		Block:    twoKernelBlock(),
		Triggers: []ise.Trigger{{Kernel: "missing", E: 5}},
		Fabric:   ise.EmptyFabric{PRC: 1, CG: 1},
	})
	if err == nil {
		t.Error("trigger for unknown kernel accepted")
	}
	_, err = Greedy(Request{Triggers: nil, Fabric: ise.EmptyFabric{}})
	if err == nil {
		t.Error("nil block accepted")
	}
}

func TestOptimalBeatsOrMatchesGreedy(t *testing.T) {
	for _, fab := range []ise.EmptyFabric{
		{PRC: 0, CG: 1}, {PRC: 1, CG: 0}, {PRC: 1, CG: 1}, {PRC: 2, CG: 2}, {PRC: 0, CG: 2},
	} {
		req := Request{
			Block:    twoKernelBlock(),
			Triggers: triggers(),
			Fabric:   fab,
			Model:    profit.Multigrained,
		}
		g, err := Greedy(req)
		if err != nil {
			t.Fatal(err)
		}
		o, err := Optimal(req)
		if err != nil {
			t.Fatal(err)
		}
		if o.TotalProfit() < g.TotalProfit()-1e-6 {
			t.Errorf("fabric %+v: optimal profit %v < greedy %v", fab, o.TotalProfit(), g.TotalProfit())
		}
	}
}

func TestOptimalRespectsResources(t *testing.T) {
	res, err := Optimal(Request{
		Block:    twoKernelBlock(),
		Triggers: triggers(),
		Fabric:   ise.EmptyFabric{PRC: 1, CG: 1},
		Model:    profit.Multigrained,
	})
	if err != nil {
		t.Fatal(err)
	}
	prc, cg := 0, 0
	seen := map[ise.DataPathID]bool{}
	for _, c := range res.Selected {
		for _, d := range c.ISE.DataPaths {
			if seen[d.ID] {
				continue
			}
			seen[d.ID] = true
			prc += d.PRCs
			cg += d.CGs
		}
	}
	if prc > 1 || cg > 1 {
		t.Errorf("optimal selection uses %d PRC / %d CG, budget 1/1", prc, cg)
	}
}

func TestOptimalSharesDataPaths(t *testing.T) {
	// Two kernels whose best ISEs share an FG data path: with one PRC,
	// the optimal algorithm can still select both.
	k1 := &ise.Kernel{
		ID: "k1", RISCLatency: 500,
		ISEs: []*ise.ISE{
			{ID: "k1.fg", Kernel: "k1", DataPaths: []ise.DataPath{fgDP("shared")}, Latencies: []arch.Cycles{100}},
		},
	}
	k2 := &ise.Kernel{
		ID: "k2", RISCLatency: 500,
		ISEs: []*ise.ISE{
			{ID: "k2.fg", Kernel: "k2", DataPaths: []ise.DataPath{fgDP("shared")}, Latencies: []arch.Cycles{120}},
		},
	}
	blk := &ise.FunctionalBlock{ID: "b", Kernels: []*ise.Kernel{k1, k2}}
	req := Request{
		Block: blk,
		Triggers: []ise.Trigger{
			{Kernel: "k1", E: 1000, TF: 10, TB: 10},
			{Kernel: "k2", E: 1000, TF: 10, TB: 10},
		},
		Fabric: ise.EmptyFabric{PRC: 1},
		Model:  profit.Multigrained,
	}
	res, err := Optimal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("optimal selected %d, want 2 (shared data path)", len(res.Selected))
	}
	g, err := Greedy(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Selected) != 2 {
		t.Fatalf("greedy selected %d, want 2 (shared data path)", len(g.Selected))
	}
}

func TestResultHelpers(t *testing.T) {
	e := &ise.ISE{ID: "x", Kernel: "k", DataPaths: []ise.DataPath{fgDP("a")}, Latencies: []arch.Cycles{10}}
	r := Result{Selected: []Choice{{Kernel: "k", ISE: e, Profit: 5}}}
	if r.ByKernel("k") != e || r.ByKernel("z") != nil {
		t.Error("ByKernel wrong")
	}
	if r.TotalProfit() != 5 {
		t.Error("TotalProfit wrong")
	}
}

// Property: greedy never over-commits fabric, never selects a kernel twice,
// and its total profit is never negative — over random budgets and
// forecasts.
func TestGreedyInvariantsProperty(t *testing.T) {
	blk := twoKernelBlock()
	f := func(prc, cg uint8, e1, e2 uint16) bool {
		req := Request{
			Block: blk,
			Triggers: []ise.Trigger{
				{Kernel: "big", E: int64(e1), TF: 10, TB: 10},
				{Kernel: "small", E: int64(e2), TF: 10, TB: 10},
			},
			Fabric: ise.EmptyFabric{PRC: int(prc % 5), CG: int(cg % 5)},
			Model:  profit.Multigrained,
		}
		res, err := Greedy(req)
		if err != nil {
			return false
		}
		prcUsed, cgUsed := 0, 0
		kernels := map[ise.KernelID]bool{}
		seen := map[ise.DataPathID]bool{}
		for _, c := range res.Selected {
			if kernels[c.Kernel] {
				return false
			}
			kernels[c.Kernel] = true
			if c.Profit < 0 {
				return false
			}
			for _, d := range c.ISE.DataPaths {
				if seen[d.ID] {
					continue
				}
				seen[d.ID] = true
				prcUsed += d.PRCs
				cgUsed += d.CGs
			}
		}
		return prcUsed <= int(prc%5) && cgUsed <= int(cg%5)
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

// Property: the branch-and-bound optimal matches brute-force enumeration on
// small instances.
func TestOptimalMatchesBruteForce(t *testing.T) {
	blk := twoKernelBlock()
	f := func(prc, cg uint8, e1, e2 uint16) bool {
		req := Request{
			Block: blk,
			Triggers: []ise.Trigger{
				{Kernel: "big", E: int64(e1 % 3000), TF: 15, TB: 12},
				{Kernel: "small", E: int64(e2 % 3000), TF: 25, TB: 9},
			},
			Fabric: ise.EmptyFabric{PRC: int(prc % 4), CG: int(cg % 4)},
			Model:  profit.Multigrained,
		}
		opt, err := Optimal(req)
		if err != nil {
			return false
		}
		want := bruteForceBest(req)
		return opt.TotalProfit() >= want-1e-6
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

// bruteForceBest enumerates every combination (including skips) and returns
// the best total profit under the resource constraint, evaluating profits
// the same way Optimal does: kernels ordered by descending steady-state
// bound (profit is order-dependent through the configuration-port backlog,
// so the enumeration order must match for an exact comparison).
func bruteForceBest(q Request) float64 {
	var ps profit.Scratch
	type kern struct {
		k    *ise.Kernel
		p    profit.Params
		exts []*ise.ISE
	}
	var ks []kern
	for _, t := range q.Triggers {
		k := q.Block.Kernel(t.Kernel)
		ks = append(ks, kern{k: k, p: profit.ParamsFromTrigger(t), exts: k.ISEs})
	}
	// Mirror Optimal's group bound EXACTLY — including the unshared/shared
	// split (unshared options are bounded by their stand-alone profit,
	// shared ones by their steady-state profit). The bound only drives the
	// sort, but profit is order-dependent through the configuration-port
	// backlog, so any key mismatch makes the two enumerations walk
	// different orders and compare incomparable totals.
	dpOwners := refComputeDataPathOwners(q)
	bound := func(kn kern) float64 {
		best := 0.0
		for _, e := range kn.exts {
			if e.CostPRC() > q.Fabric.FreePRC() || e.CostCG() > q.Fabric.FreeCG() {
				continue
			}
			pr := refProfit(&ps, kn.k, e, q.Fabric, kn.p, q.Model)
			shared := false
			for _, d := range e.DataPaths {
				if dpOwners[d.ID] > 1 {
					shared = true
					break
				}
			}
			if pr <= 0 && !shared {
				continue
			}
			b := pr
			if shared {
				b = profit.SteadyStateProfit(kn.k, e, kn.p.E)
			}
			if b > best {
				best = b
			}
		}
		return best
	}
	sort.SliceStable(ks, func(i, j int) bool { return bound(ks[i]) > bound(ks[j]) })
	best := 0.0
	var walk func(i int, st *refState, total float64)
	walk = func(i int, st *refState, total float64) {
		if i == len(ks) {
			if total > best {
				best = total
			}
			return
		}
		walk(i+1, st, total)
		for _, e := range ks[i].exts {
			if !st.fits(e) {
				continue
			}
			pr := refProfit(&ps, ks[i].k, e, st, ks[i].p, q.Model)
			if pr <= 0 {
				continue
			}
			savedPRC, savedCG := st.freePRC, st.freeCG
			savedFG, savedCGP := st.pendingFG, st.pendingCG
			savedClaimed := len(st.claimed)
			st.claim(e)
			walk(i+1, st, total+pr)
			st.freePRC, st.freeCG = savedPRC, savedCG
			st.pendingFG, st.pendingCG = savedFG, savedCGP
			st.claimed = st.claimed[:savedClaimed]
		}
	}
	st := new(refState)
	st.reset(q.Fabric)
	walk(0, st, 0)
	return best
}
