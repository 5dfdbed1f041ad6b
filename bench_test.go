package mrts

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 5) and measures the cost of the core algorithms.
//
//	go test -bench=. -benchmem
//
// Figure benches (BenchmarkFig*) run the full experiment pipeline and
// report the headline quantity of the figure as a custom metric; ablation
// benches (BenchmarkAblation*) quantify the design choices DESIGN.md calls
// out; the remaining benches measure the building blocks.

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/baseline"
	"mrts/internal/batch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/exp"
	"mrts/internal/h264"
	"mrts/internal/ise"
	"mrts/internal/iselib"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/profit"
	"mrts/internal/reconfig"
	"mrts/internal/selector"
	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/sim"
	"mrts/internal/trace"
	"mrts/internal/video"
	"mrts/internal/workload"
)

var (
	benchOnce sync.Once
	benchW    *workload.Result
	benchRISC *sim.Report
)

// benchWorkload builds the shared experiment workload once: 8 QCIF frames
// with a scene cut, the calibrated regime of the evaluation.
func benchWorkload(b *testing.B) (*workload.Result, *sim.Report) {
	b.Helper()
	benchOnce.Do(func() {
		benchW = workload.MustBuild(workload.Options{
			Frames: 8,
			Video:  video.Options{SceneCuts: []int{4}},
		})
		var err error
		benchRISC, err = sim.RunRISC(benchW.App, benchW.Trace)
		if err != nil {
			panic(err)
		}
	})
	return benchW, benchRISC
}

// --- Figure benches -------------------------------------------------------

// BenchmarkFig1 regenerates the motivational case study: the Performance
// Improvement Factor of the three deblocking-filter ISEs (paper Fig. 1).
func BenchmarkFig1(b *testing.B) {
	var crossovers int
	for i := 0; i < b.N; i++ {
		r := exp.Fig1(10000, 100)
		crossovers = len(r.Crossovers)
	}
	b.ReportMetric(float64(crossovers), "regions-1")
}

// BenchmarkFig2 regenerates the execution behaviour of the deblocking
// filter over the frame sequence (paper Fig. 2).
func BenchmarkFig2(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	var changes int
	for i := 0; i < b.N; i++ {
		r := exp.Fig2(w)
		changes = r.Changes
	}
	b.ReportMetric(float64(changes), "best-ISE-changes")
}

// BenchmarkFig8 regenerates the state-of-the-art comparison (paper Fig. 8):
// RISPP-like, offline-optimal, Morpheus/4S-like and mRTS over the fabric
// sweep. Reported metrics are mRTS's average speedups per competitor.
func BenchmarkFig8(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	var r exp.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig8(context.Background(), exp.DirectEvaluator(w), 3, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgSpeedup[exp.PolicyRISPP], "avg-vs-RISPP-x")
	b.ReportMetric(r.AvgSpeedup[exp.PolicyOffline], "avg-vs-offline-x")
	b.ReportMetric(r.AvgSpeedup[exp.PolicyMorpheus], "avg-vs-morpheus-x")
}

// BenchmarkFig9 regenerates the heuristic-vs-optimal selection comparison
// (paper Fig. 9) and reports the average and worst percentage difference.
func BenchmarkFig9(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	var r exp.Fig9Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig9(context.Background(), exp.DirectEvaluator(w), 3, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Avg, "avg-diff-%")
	b.ReportMetric(r.Worst, "worst-diff-%")
}

// BenchmarkFig10 regenerates the speedup-over-RISC analysis (paper
// Fig. 10) and reports the per-class averages.
func BenchmarkFig10(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	var r exp.Fig10Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Fig10(context.Background(), exp.DirectEvaluator(w), 3, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.AvgByClass[arch.GrainFG], "avg-FG-only-x")
	b.ReportMetric(r.AvgByClass[arch.GrainCG], "avg-CG-only-x")
	b.ReportMetric(r.AvgByClass[arch.GrainMG], "avg-MG-x")
}

// BenchmarkFaults regenerates the graceful-degradation sweep (`mrts-sweep
// -fig faults`): permanent fabric failures at growing loss fractions, the
// four Fig. 8 policies run to completion on what survives. Reported
// metrics are mRTS's slowdown at full loss relative to RISC mode (should
// approach 1) and its advantage over the best static baseline at 50% loss.
func BenchmarkFaults(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	var r exp.FaultsResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Faults(context.Background(), exp.DirectPointEvaluator(w), exp.FaultsConfig, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	b.ReportMetric(float64(last.Cycles[exp.PolicyMRTS])/float64(r.RISCCycles), "full-loss-vs-RISC-x")
	for _, row := range r.Rows {
		if row.Fraction == 0.5 {
			b.ReportMetric(row.AdvantageStatic, "half-loss-vs-static-x")
		}
	}
}

// BenchmarkOverhead regenerates the Section 5.4 analysis: the mRTS
// selection overhead in cycles per trigger instruction.
func BenchmarkOverhead(b *testing.B) {
	w, _ := benchWorkload(b)
	b.ResetTimer()
	var r exp.OverheadResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = exp.Overhead(w, arch.Config{NPRC: 2, NCG: 2})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.CyclesPerSelection, "cycles/selection")
	b.ReportMetric(100*r.VisiblePerBlockShare, "visible-%-of-block")
}

// --- Ablation benches (design choices of DESIGN.md Section 5) -------------

// ablate runs mRTS with the given options on the 2 PRC / 2 CG combination
// and reports the speedup over RISC mode.
func ablate(b *testing.B, opts core.Options) {
	w, risc := benchWorkload(b)
	cfg := arch.Config{NPRC: 2, NCG: 2}
	b.ResetTimer()
	var rep *sim.Report
	for i := 0; i < b.N; i++ {
		m, err := core.New(cfg, opts)
		if err != nil {
			b.Fatal(err)
		}
		rep, err = sim.Run(w.App, w.Trace, m)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Speedup(risc), "speedup-x")
	b.ReportMetric(100*rep.ModeShare(ecu.MonoCG), "monoCG-%")
}

// BenchmarkAblationBaselineMRTS is the reference point for the ablations:
// full mRTS.
func BenchmarkAblationBaselineMRTS(b *testing.B) {
	ablate(b, core.Options{ChargeOverhead: true})
}

// BenchmarkAblationNoMonoCG removes the monoCG-Extension from the ECU.
func BenchmarkAblationNoMonoCG(b *testing.B) {
	ablate(b, core.Options{ChargeOverhead: true, ECU: ecu.Options{DisableMonoCG: true}})
}

// BenchmarkAblationNoIntermediate removes intermediate-ISE execution from
// the ECU: kernels wait in RISC/monoCG until the selected ISE is complete.
func BenchmarkAblationNoIntermediate(b *testing.B) {
	ablate(b, core.Options{ChargeOverhead: true, ECU: ecu.Options{DisableIntermediate: true}})
}

// BenchmarkAblationFGTunedProfit swaps the multi-grained profit function
// for the RISPP-style FG-tuned cost model (keeping everything else).
func BenchmarkAblationFGTunedProfit(b *testing.B) {
	ablate(b, core.Options{ChargeOverhead: true, Model: profit.FGTuned})
}

// BenchmarkAblationNoMPU disables the run-time forecast correction.
func BenchmarkAblationNoMPU(b *testing.B) {
	ablate(b, core.Options{ChargeOverhead: true, MPU: []mpu.Option{mpu.Disabled()}})
}

// BenchmarkAblationOptimalSelector replaces the greedy heuristic with the
// exhaustive optimal selection (overhead not charged — quality bound).
func BenchmarkAblationOptimalSelector(b *testing.B) {
	ablate(b, core.Options{Select: selector.Optimal})
}

// --- Building-block benches ------------------------------------------------

// BenchmarkProfitFunction measures one profit-function evaluation — the
// unit of the Section 5.4 overhead model.
func BenchmarkProfitFunction(b *testing.B) {
	app := iselib.MustNewApplication()
	k := app.Kernel("sad")
	e := k.ISEs[1]
	p := profit.Params{E: 2000, TF: 3000, TB: 400}
	var s profit.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Profit(k, e, 0, nil, p, profit.Multigrained)
	}
}

// BenchmarkGreedySelection measures one run of the Fig. 6 selection
// algorithm over a full functional block.
func BenchmarkGreedySelection(b *testing.B) {
	w, _ := benchWorkload(b)
	blk := w.App.Block("enc")
	triggers := w.Trace.ProfileFor("enc", "P")
	req := selector.Request{
		Block:    blk,
		Triggers: triggers,
		Fabric:   ise.EmptyFabric{PRC: 3, CG: 3},
		Model:    profit.Multigrained,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := selector.Greedy(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalSelection measures the exhaustive selection on the same
// block — the cost that makes it infeasible at run time (paper
// Section 4.1).
func BenchmarkOptimalSelection(b *testing.B) {
	w, _ := benchWorkload(b)
	blk := w.App.Block("enc")
	triggers := w.Trace.ProfileFor("enc", "P")
	req := selector.Request{
		Block:    blk,
		Triggers: triggers,
		Fabric:   ise.EmptyFabric{PRC: 3, CG: 3},
		Model:    profit.Multigrained,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := selector.Optimal(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectionObserved is BenchmarkTriggerSelection with a
// decision-trace recorder attached: the cost of tracing the hot path. The
// observer-off case (BenchmarkTriggerSelection) must stay allocation-free
// with respect to observation — the baseline check pins its allocs/op.
func BenchmarkSelectionObserved(b *testing.B) {
	w, _ := benchWorkload(b)
	blk := w.App.Block("enc")
	triggers := w.Trace.ProfileFor("enc", "P")
	m := core.MustNew(arch.Config{NPRC: 2, NCG: 2}, core.Options{ChargeOverhead: true})
	rec := obs.New()
	m.SetObserver(rec)
	const settled = 50_000_000
	if _, err := m.OnTrigger(blk, "P", triggers, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := m.OnTrigger(blk, "P", triggers, settled); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.OnTrigger(blk, "P", triggers, settled); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			rec.Reset() // bound the event buffer; Reset keeps the recorder attached
		}
	}
}

// BenchmarkTriggerSelection measures a full trigger-instruction reaction
// (MPU forecast, selection, commit) on a settled fabric.
func BenchmarkTriggerSelection(b *testing.B) {
	w, _ := benchWorkload(b)
	blk := w.App.Block("enc")
	triggers := w.Trace.ProfileFor("enc", "P")
	m := core.MustNew(arch.Config{NPRC: 2, NCG: 2}, core.Options{ChargeOverhead: true})
	const settled = 50_000_000
	if _, err := m.OnTrigger(blk, "P", triggers, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.OnTrigger(blk, "P", triggers, settled); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitSelection measures the reconfiguration controller alone:
// one op commits, in order and at their trigger times, the non-empty
// selections an mRTS run of the Small workload makes on a 4/3 fabric,
// including the lazy evictions they cause (evictions/op).
func BenchmarkCommitSelection(b *testing.B) {
	w := workload.Small()
	cfg := arch.Config{NPRC: 4, NCG: 3}
	rts, err := exp.NewPolicy(exp.PolicyMRTS, cfg, w.App, w.Trace)
	if err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	if _, err := sim.RunOpts(w.App, w.Trace, rts, sim.Options{Observer: rec}); err != nil {
		b.Fatal(err)
	}
	type commit struct {
		sel []*ise.ISE
		now arch.Cycles
	}
	var commits []commit
	for _, ev := range rec.Events() {
		if ev.Kind != obs.KindClaim {
			continue
		}
		if ev.Round == 1 {
			commits = append(commits, commit{now: ev.Cycle})
		}
		c := &commits[len(commits)-1]
		for _, e := range w.App.Block(ev.Block).Kernel(ise.KernelID(ev.Kernel)).ISEs {
			if e.ID == ev.ISE {
				c.sel = append(c.sel, e)
			}
		}
	}
	ctrl, err := reconfig.NewController(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Reset()
		for _, c := range commits {
			ctrl.CommitSelectionSafe(c.sel, c.now)
		}
	}
	b.ReportMetric(float64(ctrl.Stats().Evictions), "evictions/op")
	b.ReportMetric(float64(len(commits)), "commits/op")
}

// BenchmarkGreedyIncremental stresses the incremental greedy on a large
// synthetic library, where multi-round selections give the per-candidate
// profit memo something to save; saved-frac reports the share of modelled
// evaluations answered from the memo. Under the port-aware Multigrained
// model nearly every claim queues reconfiguration work, so exact
// invalidation leaves little to save; under PortBlind (the paper's
// original profit function) only shared data paths invalidate, and the
// memo carries most of the later rounds.
func BenchmarkGreedyIncremental(b *testing.B) {
	blk, triggers := iselib.GenerateBlock("inc", 6, 60, 11)
	for _, bm := range []struct {
		name string
		m    profit.Model
	}{
		{"multigrained", profit.Multigrained},
		{"portblind", profit.PortBlind},
	} {
		req := selector.Request{
			Block:    blk,
			Triggers: triggers,
			Fabric:   ise.EmptyFabric{PRC: 4, CG: 3},
			Model:    bm.m,
		}
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			var last selector.Result
			for i := 0; i < b.N; i++ {
				res, err := selector.Greedy(req)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if last.Evaluations > 0 {
				b.ReportMetric(float64(last.SavedEvaluations)/float64(last.Evaluations), "saved-frac")
			}
		})
	}
}

// BenchmarkKnapsackDP measures the offline multi-choice knapsack over the
// whole application.
func BenchmarkKnapsackDP(b *testing.B) {
	app := iselib.MustNewApplication()
	var groups [][]selector.Option
	for _, blk := range app.Blocks {
		for _, k := range blk.Kernels {
			var opts []selector.Option
			for _, e := range k.ISEs {
				opts = append(opts, selector.Option{
					Label: e.ID, PRC: e.CostPRC(), CG: e.CostCG(),
					Profit: profit.SteadyStateProfit(k, e, 10000),
				})
			}
			groups = append(groups, opts)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selector.MultiChoiceKnapsack(groups, 4, 3)
	}
}

// BenchmarkEncoderFrame measures encoding one QCIF frame — the workload
// substrate's cost.
func BenchmarkEncoderFrame(b *testing.B) {
	gen, err := video.NewGenerator(176, 144, 1, video.Options{})
	if err != nil {
		b.Fatal(err)
	}
	enc, err := h264.NewEncoder(176, 144, h264.Config{})
	if err != nil {
		b.Fatal(err)
	}
	frames := gen.Sequence(2)
	if _, err := enc.EncodeFrame(frames[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.EncodeFrame(frames[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkloadBuild measures building one input of `mrts-sweep -fig
// all`: 16 QCIF frames at video seed 5 with scene cuts at frames 5 and 10,
// plus the separate profiling sequence the static triggers come from.
func BenchmarkWorkloadBuild(b *testing.B) {
	opts := workload.Options{
		Frames: 16,
		Seed:   5,
		Video:  video.Options{SceneCuts: []int{5, 10}},
	}
	for i := 0; i < b.N; i++ {
		if _, err := workload.Build(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorRun measures one full simulator run (events/op scale
// with the workload).
func BenchmarkSimulatorRun(b *testing.B) {
	w, _ := benchWorkload(b)
	m := core.MustNew(arch.Config{NPRC: 2, NCG: 2}, core.Options{ChargeOverhead: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w.App, w.Trace, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceMerge measures building the merged single-core Schedule
// (execution order plus closed-form summary) of one functional-block
// iteration.
func BenchmarkTraceMerge(b *testing.B) {
	w, _ := benchWorkload(b)
	var it *trace.Iteration
	for i := range w.Trace.Iterations {
		if w.Trace.Iterations[i].Block == "me" {
			it = &w.Trace.Iterations[i]
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Merge(it.Loads)
	}
}

// BenchmarkRISPPLike / BenchmarkMorpheus / BenchmarkOfflineOptimal measure
// a full simulated run under each baseline on the 2/2 combination.
func BenchmarkRISPPLike(b *testing.B) {
	w, _ := benchWorkload(b)
	r, err := baseline.NewRISPPLike(arch.Config{NPRC: 2, NCG: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w.App, w.Trace, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMorpheus(b *testing.B) {
	w, _ := benchWorkload(b)
	r, err := baseline.NewMorpheus4S(arch.Config{NPRC: 2, NCG: 2}, w.App, w.Trace)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w.App, w.Trace, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineOptimal(b *testing.B) {
	w, _ := benchWorkload(b)
	r, err := baseline.NewOfflineOptimal(arch.Config{NPRC: 2, NCG: 2}, w.App, w.Trace)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(w.App, w.Trace, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectorScalability measures the greedy Fig. 6 heuristic across
// synthetic library sizes up to the paper's extremes (6 kernels x 60 ISEs,
// a nominal combination space beyond 78 million).
func BenchmarkSelectorScalability(b *testing.B) {
	for _, sz := range []struct{ n, m int }{
		{2, 8}, {4, 20}, {6, 60}, {10, 60},
	} {
		blk, triggers := iselib.GenerateBlock("s", sz.n, sz.m, 11)
		req := selector.Request{
			Block:    blk,
			Triggers: triggers,
			Fabric:   ise.EmptyFabric{PRC: 4, CG: 3},
			Model:    profit.Multigrained,
		}
		b.Run(fmt.Sprintf("%dx%d", sz.n, sz.m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := selector.Greedy(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimalScalability shows why the exhaustive algorithm cannot
// run on the processor: branch-and-bound still explodes combinatorially
// as the library grows.
func BenchmarkOptimalScalability(b *testing.B) {
	for _, sz := range []struct{ n, m int }{
		{2, 8}, {4, 12}, {5, 12}, {6, 12},
	} {
		blk, triggers := iselib.GenerateBlock("s", sz.n, sz.m, 13)
		req := selector.Request{
			Block:    blk,
			Triggers: triggers,
			Fabric:   ise.EmptyFabric{PRC: 3, CG: 3},
			Model:    profit.Multigrained,
		}
		b.Run(fmt.Sprintf("%dx%d", sz.n, sz.m), func(b *testing.B) {
			nodes := 0
			for i := 0; i < b.N; i++ {
				res, err := selector.Optimal(req)
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Rounds
			}
			// Explored branch-and-bound nodes: the quantity the
			// tightened upper bound shrinks.
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkAblationPortBlindProfit removes the configuration-port
// awareness from the profit estimate (the paper's original formulation):
// reconfigurations are costed as if the ports were idle.
func BenchmarkAblationPortBlindProfit(b *testing.B) {
	ablate(b, core.Options{ChargeOverhead: true, Model: profit.PortBlind})
}

// --- Batch engine benches --------------------------------------------------

// BenchmarkSweepWallclock measures the figure pipeline (Fig. 8 + 9 + 10 —
// the core of `mrts-sweep -fig all`) end to end. "sequential" is the
// pre-batch behaviour: the direct evaluator on a single worker. "batch" is
// the batch engine with the default worker pool and point deduplication
// across figures; point-replays counts the simulations the engine never
// re-ran.
func BenchmarkSweepWallclock(b *testing.B) {
	w, _ := benchWorkload(b)
	figs := func(ctx context.Context, eval exp.Evaluator) error {
		if _, err := exp.Fig8(ctx, eval, 3, 2); err != nil {
			return err
		}
		if _, err := exp.Fig9(ctx, eval, 3, 2); err != nil {
			return err
		}
		_, err := exp.Fig10(ctx, eval, 3, 2)
		return err
	}
	b.Run("sequential", func(b *testing.B) {
		ctx := exp.WithWorkers(context.Background(), 1)
		for i := 0; i < b.N; i++ {
			if err := figs(ctx, exp.DirectEvaluator(w)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var st batch.Stats
		for i := 0; i < b.N; i++ {
			eng := batch.New(w, 0)
			if err := figs(context.Background(), eng.Evaluator()); err != nil {
				b.Fatal(err)
			}
			st = eng.Stats()
		}
		b.ReportMetric(float64(st.PointHits), "point-replays")
	})
}

var (
	phasedBenchOnce sync.Once
	phasedBenchW    *workload.Result
)

// phasedBenchWorkload builds the shared dynamic control-flow workload
// once: the phase sweep's default shape at divergence 0.5.
func phasedBenchWorkload(b testing.TB) *workload.Result {
	b.Helper()
	phasedBenchOnce.Do(func() {
		phasedBenchW = workload.MustBuild(workload.Options{
			Seed:   1,
			Phased: &workload.PhasedOptions{Divergence: 0.5},
		})
		// Build the lazily merged schedule now, so no sub-benchmark is
		// charged for it (benchWorkload warms it through RunRISC).
		phasedBenchW.Trace.MergedLoads(0)
	})
	return phasedBenchW
}

// BenchmarkPhasedPrediction measures one full mRTS run per MPU predictor
// kind on a dynamic control-flow workload — the cost of the phase-aware
// forecasters relative to the back-propagation baseline, with each run's
// mean absolute forecast error reported alongside.
func BenchmarkPhasedPrediction(b *testing.B) {
	w := phasedBenchWorkload(b)
	for _, k := range mpu.Kinds() {
		kind := mpu.Kind(k)
		b.Run(k, func(b *testing.B) {
			var rep *sim.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = exp.RunPointPredictor(nil, w, arch.Config{NPRC: 2, NCG: 2}, kind, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Forecast.Total.MeanAbsE(), "abs-err/obs")
		})
	}
}

// TestPhasedPredictionOverheadBounded is the MRTS_BENCH_SMOKE speed guard
// of the phase-aware forecasters: a full mRTS run with the phase or decay
// predictor must not cost more than 1.5x the back-propagation run on the
// same dynamic workload — the accuracy win must not be bought with
// simulation-loop overhead. (In practice the better forecasters are
// faster: fewer mispredicted selections means fewer reconfigurations.)
func TestPhasedPredictionOverheadBounded(t *testing.T) {
	if os.Getenv("MRTS_BENCH_SMOKE") == "" {
		t.Skip("set MRTS_BENCH_SMOKE=1 to run the phased-prediction overhead guard")
	}
	w := phasedBenchWorkload(t)
	run := func(k mpu.Kind) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exp.RunPointPredictor(nil, w, arch.Config{NPRC: 2, NCG: 2}, k, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	base := run(mpu.KindBackProp)
	for _, k := range []mpu.Kind{mpu.KindPhase, mpu.KindDecay} {
		got := run(k)
		t.Logf("%s %d ns/op vs backprop %d ns/op", k, got.NsPerOp(), base.NsPerOp())
		if float64(got.NsPerOp()) > 1.5*float64(base.NsPerOp()) {
			t.Errorf("%s predictor run costs %d ns/op, more than 1.5x backprop's %d ns/op",
				k, got.NsPerOp(), base.NsPerOp())
		}
	}
}

// --- Service benches -------------------------------------------------------

// BenchmarkServiceCacheHit measures a job that is fully served from the
// workload's report memo: the same simulation point submitted through the
// job queue after a warm-up run. Compare against BenchmarkServiceColdJob
// for the amortisation the cache buys.
func BenchmarkServiceCacheHit(b *testing.B) {
	s := service.New(service.Options{Workers: 1})
	defer s.Close()
	spec := api.JobSpec{
		Type:     api.JobSim,
		Workload: api.WorkloadSpec{Frames: 2, Seed: 1},
		PRC:      2, CG: 1, Policy: "mrts",
	}
	runServiceJob(b, s, spec) // warm the workload cache and its report memo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := runServiceJob(b, s, spec)
		if res.CacheMisses != 0 {
			b.Fatalf("warm job missed the cache (%d misses)", res.CacheMisses)
		}
	}
}

// BenchmarkServiceColdJob measures a job whose point is not cached: every
// iteration evaluates a fabric combination the server has not seen, so the
// full simulation runs (the workload and its RISC reference stay cached,
// as they would for a daemon sweeping one sequence).
func BenchmarkServiceColdJob(b *testing.B) {
	s := service.New(service.Options{Workers: 1})
	defer s.Close()
	base := api.JobSpec{
		Type:     api.JobSim,
		Workload: api.WorkloadSpec{Frames: 2, Seed: 1},
		Policy:   "mrts",
	}
	runServiceJob(b, s, base) // build the workload outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := base
		spec.PRC = 1 + i%64
		spec.CG = 1 + i/64
		res := runServiceJob(b, s, spec)
		if res.CacheMisses != 1 {
			b.Fatalf("cold job's point hit the cache at iteration %d", i)
		}
	}
}

// BenchmarkServiceThroughput measures end-to-end jobs/sec through the
// whole service pipeline — admission, idempotency table, queue, worker
// dispatch, result delivery — with the simulation itself served from the
// warm report memo, so the number isolates the service machinery the
// cluster layer multiplies across nodes.
func BenchmarkServiceThroughput(b *testing.B) {
	s := service.New(service.Options{Workers: 4, QueueDepth: 512})
	defer s.Close()
	spec := api.JobSpec{
		Type:     api.JobSim,
		Workload: api.WorkloadSpec{Frames: 2, Seed: 1},
		PRC:      2, CG: 1, Policy: "mrts",
	}
	runServiceJob(b, s, spec) // warm the workload cache and its report memo
	var failure atomic.Value
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			job, err := s.Submit(spec)
			if err == nil {
				err = s.Wait(ctx, job)
			}
			if err != nil {
				failure.Store(err)
				return
			}
		}
	})
	b.StopTimer()
	if err, ok := failure.Load().(error); ok {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/sec")
}

func runServiceJob(b *testing.B, s *service.Server, spec api.JobSpec) *api.JobResult {
	b.Helper()
	job, err := s.Submit(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Wait(context.Background(), job); err != nil {
		b.Fatal(err)
	}
	st := s.Status(job, true)
	if st.State != api.StateDone {
		b.Fatalf("job %s: %s", st.State, st.Error)
	}
	return st.Result
}
