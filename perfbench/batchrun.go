package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mrts/internal/batch"
	"mrts/internal/exp"
)

// paperFig8Speedup is the average mRTS speedup over offline-optimal the
// paper reports for Fig. 8.
const paperFig8Speedup = 1.45

// timedLoop calls rep for input (i mod n) until the run's time is up, with
// at least one repetition per input. The heap is collected between
// repetitions so none inherits another's garbage.
func timedLoop(seconds float64, n int, rep func(i, k int)) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < n || time.Now().Before(deadline); i++ {
		runtime.GC()
		rep(i, i%n)
	}
}

func runFigs(cfg runConfig, res *result) error {
	pool, err := setupPool(figsPool(cfg.seed), res)
	if err != nil {
		return err
	}
	if cfg.traced {
		return figsLayers(cfg, pool, res)
	}
	per := make([]costs, len(pool))
	seen := make([][]string, len(pool))
	speedup := make([]float64, len(pool))
	var pts latencies
	timedLoop(cfg.seconds, len(pool), func(_, k int) {
		res.attempted++
		u0 := sampleUsage()
		r, _, err := figsUntraced(pool[k].w, batchWorkers, &pts)
		u1 := sampleUsage()
		if err != nil {
			res.fail("figs %s: %v", pool[k].label(), err)
			return
		}
		per[k].add(u0, u1, 1)
		seen[k] = append(seen[k], digest(r.text))
		speedup[k] = r.speedup
	})
	checkDigests(pool, seen, func(in input) (string, error) { return referenceFigs(in, cfg.figs) }, res)
	res.set("wall_s", poolMedian(per, func(c costs) []float64 { return c.wall }))
	res.set("cpu_s", poolMedian(per, func(c costs) []float64 { return c.cpu }))
	res.set("alloc_mb", poolMedian(per, func(c costs) []float64 { return c.alloc }))
	res.diag = map[string]any{"quiet_samples": quietShare(per...)}
	res.set("p50_s", quantile(pts.xs, 0.5))
	sp := mean(speedup)
	res.set("speedup_x", sp)
	res.note("figs: %d repetitions over %s (16 frames, %d workers); p50 over %d evaluated points (p99 %s, not a metric)",
		res.attempted, labels(pool), batchWorkers, len(pts.xs), fmtDur(quantile(pts.xs, 0.99)))
	res.note("speedup_x: Fig. 8 average mRTS speedup over offline-optimal %.3fx; paper %.2fx (gap %+.1f%%)",
		sp, paperFig8Speedup, 100*(sp/paperFig8Speedup-1))
	return nil
}

func runPhased(cfg runConfig, res *result) error {
	pool, err := setupPool(phasedPool(cfg.seed), res)
	if err != nil {
		return err
	}
	if cfg.traced {
		return phasedLayers(cfg, pool, res)
	}
	per := make([]costs, len(pool))
	seen := make([][]string, len(pool))
	speedup := make([]float64, len(pool))
	var pts latencies
	iters := make([]iterLatencies, len(pool))
	timedLoop(cfg.seconds, len(pool), func(_, k int) {
		res.attempted++
		u0 := sampleUsage()
		reps, _, err := phasedUntraced(pool[k].w, batchWorkers, &pts, &iters[k])
		u1 := sampleUsage()
		if err != nil {
			res.fail("phased %s: %v", pool[k].label(), err)
			return
		}
		per[k].add(u0, u1, 1)
		ds, sp, err := phasedReports(reps)
		if err != nil {
			res.fail("phased %s: %v", pool[k].label(), err)
			return
		}
		seen[k] = append(seen[k], strings.Join(ds, ","))
		speedup[k] = sp
	})
	checkDigests(pool, seen, referencePhased, res)
	res.set("wall_s", poolMedian(per, func(c costs) []float64 { return c.wall }))
	res.set("cpu_s", poolMedian(per, func(c costs) []float64 { return c.cpu }))
	res.set("alloc_mb", poolMedian(per, func(c costs) []float64 { return c.alloc }))
	res.diag = map[string]any{"quiet_samples": quietShare(per...)}
	var iterMedians []float64
	for i := range iters {
		iterMedians = append(iterMedians, iters[i].medians()...)
	}
	res.set("p50_s", quantile(iterMedians, 0.5))
	res.set("speedup_x", mean(speedup))
	res.note("phased: %d repetitions over %s (divergence 0.5, RISC + %s at 2 PRC/2 CG, %d workers); p50 over the %d block iterations of the pool, each its median over the repetitions (p99 %s, not a metric)",
		res.attempted, labels(pool), strings.Join(phasedPolicies[1:], "/"), batchWorkers, len(iterMedians), fmtDur(quantile(iterMedians, 0.99)))
	res.note("speedup_x: phase-predictor speedup over RISC mode %.3fx (unvalidated: the paper has no such experiment)", mean(speedup))
	return nil
}

// checkDigests compares every repetition's output digest with the input's
// reference and counts each mismatch as a failed operation. References
// are computed over batchWorkers workers; this is untimed.
func checkDigests(pool []input, seen [][]string, ref func(input) (string, error), res *result) {
	ctx := exp.WithWorkers(context.Background(), batchWorkers)
	type reference struct {
		want string
		err  error
	}
	refs, _ := exp.ParMap(ctx, len(pool), func(_ context.Context, k int) (reference, error) {
		want, err := ref(pool[k])
		return reference{want, err}, nil
	})
	for k, in := range pool {
		if refs[k].err != nil {
			res.fail("reference for %s: %v", in.label(), refs[k].err)
			continue
		}
		for i, got := range seen[k] {
			if got != refs[k].want {
				res.fail("%s repetition %d: output differs from the reference (%.12s vs %.12s)", in.label(), i, got, refs[k].want)
			}
		}
	}
}

func labels(pool []input) string {
	var out []string
	for _, in := range pool {
		out = append(out, in.label())
	}
	return strings.Join(out, ", ")
}

// batchLayers is the bookkeeping of a traced batch run: per cycle one
// untraced one-worker repetition, one traced repetition and one untraced
// repetition at the timed run's pool size, all on the same input.
type batchLayers struct {
	acc         layerAcc
	tracedReps  int
	tracedWall  float64 // measured around each traced repetition
	covered     float64 // inside the repetitions' figure or point spans
	unwrapped   float64
	ratios      []float64 // traced / untraced one-worker wall, per cycle
	pts         latencies // untraced points at batchWorkers
	busy, sweep float64   // untraced point busy time and sweep wall
	cpu         float64   // untraced CPU at batchWorkers
	stats       batch.Stats
}

func (b *batchLayers) report(cfg runConfig, tr *tracer, res *result) {
	n := float64(b.tracedReps)
	a := &b.acc
	layers, top := layerShares(a, b.tracedReps, b.covered, b.unwrapped)
	res.set("exp.point_s.p50", quantile(b.pts.xs, 0.5))
	res.set("exp.point_s.p99", quantile(b.pts.xs, 0.99))
	if b.sweep > 0 {
		res.set("exp.pool_util", b.busy/(batchWorkers*b.sweep))
	}
	res.set("batch.point_hit_ratio", ratio(b.stats.PointHits, b.stats.Points))
	res.set("batch.seed_hit_ratio", ratio(int64(b.stats.SeedHits), int64(b.stats.SeedHits+b.stats.SeedMisses)))
	res.set("sim.self_s", layers["sim.self"])
	res.set("sim.executions", float64(a.executions)/n)
	if a.executions > 0 {
		res.set("sim.ns_per_exec", b.cpu*1e9/float64(a.executions))
	}
	res.set("core.trigger_s", layers["core.trigger"])
	res.set("core.execute_s", layers["core.execute"])
	res.set("core.block_end_s", layers["core.block_end"])
	res.set("selector.evaluations", float64(a.evaluations)/n)
	res.set("selector.cache_hit_ratio", ratio(a.l1Hits, a.l1Hits+a.l1Misses))
	res.set("selector.shared_hit_ratio", ratio(a.shHits, a.shHits+a.shMisses))
	res.set("reconfig.evictions", float64(a.evictions)/n)
	res.set("trace_overhead_frac", median(b.ratios)-1)
	var sum float64
	var names []string
	for k, v := range layers {
		sum += v
		names = append(names, k)
	}
	res.set("layer_sum_frac", sum*n/b.tracedWall)
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	var parts []string
	for _, k := range names {
		parts = append(parts, fmt.Sprintf("%s %s (%.1f%%)", k, fmtDur(layers[k]), 100*layers[k]*n/b.tracedWall))
	}
	res.note("layers per traced repetition (1 worker, %d repetitions): %s", b.tracedReps, strings.Join(parts, ", "))
	res.note("top host-time layer: %s", top)
	res.note("ratios: point hits %d/%d, seed hits %d/%d, L1 selection hits %d/%d, shared hits %d/%d; execute timed 1 in %d calls",
		b.stats.PointHits, b.stats.Points, b.stats.SeedHits, b.stats.SeedHits+b.stats.SeedMisses,
		a.l1Hits, a.l1Hits+a.l1Misses, a.shHits, a.shHits+a.shMisses, executeSampleEvery)
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeJSONL(path); err != nil {
		res.fail("writing spans: %v", err)
		return
	}
	res.note("spans of the first traced repetition: %s (%d spans)", path, len(tr.spans))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func figsLayers(cfg runConfig, pool []input, res *result) error {
	tr := newTracer()
	var b batchLayers
	seen := make([][]string, len(pool))
	timedLoop(cfg.seconds, len(pool), func(i, k int) {
		w := pool[k].w
		res.attempted++
		t0 := time.Now()
		u, _, err := figsUntraced(w, 1, &latencies{})
		if err != nil {
			res.fail("figs %s: %v", pool[k].label(), err)
			return
		}
		plain := time.Since(t0).Seconds()
		runtime.GC()
		var spans *tracer
		if i == 0 {
			spans = tr
		}
		t0 = time.Now()
		r, _, err := figsTraced(w, spans, "figs/"+pool[k].label(), &b.acc)
		traced := time.Since(t0).Seconds()
		if err != nil {
			res.fail("traced figs %s: %v", pool[k].label(), err)
			return
		}
		if digest(r.text) != digest(u.text) {
			res.fail("%s: traced output differs from untraced", pool[k].label())
		}
		b.tracedReps++
		b.tracedWall += traced
		b.unwrapped += r.unwrapped
		b.covered += r.sweepWall + r.unwrapped
		b.ratios = append(b.ratios, traced/plain)
		runtime.GC()
		c0 := cpuSeconds()
		u2, st, err := figsUntraced(w, batchWorkers, &b.pts)
		if err != nil {
			res.fail("figs %s: %v", pool[k].label(), err)
			return
		}
		b.cpu += cpuSeconds() - c0
		b.busy += float64(u2.pointBusyNS) / 1e9
		b.sweep += u2.sweepWall
		b.stats.Points += st.Points
		b.stats.PointHits += st.PointHits
		b.stats.SeedHits += st.SeedHits
		b.stats.SeedMisses += st.SeedMisses
		seen[k] = append(seen[k], digest(u.text), digest(u2.text))
	})
	checkDigests(pool, seen, func(in input) (string, error) { return referenceFigs(in, cfg.figs) }, res)
	b.report(cfg, tr, res)
	return nil
}

func phasedLayers(cfg runConfig, pool []input, res *result) error {
	tr := newTracer()
	var b batchLayers
	seen := make([][]string, len(pool))
	timedLoop(cfg.seconds, len(pool), func(i, k int) {
		w := pool[k].w
		res.attempted++
		t0 := time.Now()
		u, _, err := phasedUntraced(w, 1, &latencies{}, nil)
		if err != nil {
			res.fail("phased %s: %v", pool[k].label(), err)
			return
		}
		plain := time.Since(t0).Seconds()
		runtime.GC()
		var spans *tracer
		if i == 0 {
			spans = tr
		}
		t0 = time.Now()
		reps, span, err := phasedTraced(w, spans, "phased/"+pool[k].label(), &b.acc)
		traced := time.Since(t0).Seconds()
		if err != nil {
			res.fail("traced phased %s: %v", pool[k].label(), err)
			return
		}
		du, _, err1 := phasedReports(u)
		dt, _, err2 := phasedReports(reps)
		if err1 != nil || err2 != nil || strings.Join(du, ",") != strings.Join(dt, ",") {
			res.fail("%s: traced reports differ from untraced", pool[k].label())
		}
		b.tracedReps++
		b.tracedWall += traced
		b.covered += span
		b.ratios = append(b.ratios, traced/plain)
		runtime.GC()
		c0 := cpuSeconds()
		s0 := time.Now()
		u2, busy, err := phasedUntraced(w, batchWorkers, &b.pts, nil)
		if err != nil {
			res.fail("phased %s: %v", pool[k].label(), err)
			return
		}
		b.sweep += time.Since(s0).Seconds()
		b.cpu += cpuSeconds() - c0
		b.busy += float64(busy) / 1e9
		d2, _, err := phasedReports(u2)
		if err != nil {
			res.fail("phased %s: %v", pool[k].label(), err)
			return
		}
		seen[k] = append(seen[k], strings.Join(du, ","), strings.Join(d2, ","))
	})
	checkDigests(pool, seen, referencePhased, res)
	b.report(cfg, tr, res)
	return nil
}
