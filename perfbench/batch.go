package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"mrts/internal/arch"
	"mrts/internal/batch"
	"mrts/internal/core"
	"mrts/internal/exp"
	"mrts/internal/mpu"
	"mrts/internal/selector"
	"mrts/internal/service/api"
	"mrts/internal/sim"
	"mrts/internal/trace"
	"mrts/internal/video"
	"mrts/internal/workload"
)

const (
	// batchWorkers is the sweep pool size of the timed repetitions.
	batchWorkers = 2
	// poolSize is how many seed-derived inputs one run cycles through.
	// The work differs from one input to the next; averaging over a pool
	// keeps that out of the run-to-run spread without hiding a per-input
	// slowdown.
	poolSize = 4
	// figFrames is the length of the H.264 sequence the figures run on.
	figFrames = 16
)

// figsPool is the run's figure inputs: the `mrts-sweep -fig all` workload
// at video seeds 4·seed+1 … 4·seed+4 (disjoint per benchmark seed, never
// the generator's "default" 0).
func figsPool(seed uint64) []workload.Options {
	var out []workload.Options
	for i := uint64(0); i < poolSize; i++ {
		s := seed*poolSize + i + 1
		out = append(out, workload.Options{
			Frames: figFrames,
			Seed:   s,
			Video:  video.Options{SceneCuts: []int{figFrames / 3, 2 * figFrames / 3}},
		})
	}
	return out
}

// phasedPool is the run's phased inputs: the `mrts-sim -phased
// -divergence 0.5` workload on deployment walks 1 … 4, each profiled on a
// walk derived from the seed. The deployment walk fixes the trace, whose
// kernel-execution count differs by tens of percent from one walk to the
// next (1.5-3.5 M per point); the profiling walk sets the forecasts the
// binary starts from, and with them every selection the run makes.
func phasedPool(seed uint64) []workload.Options {
	var out []workload.Options
	for i := uint64(0); i < poolSize; i++ {
		out = append(out, workload.Options{
			Seed:        i + 1,
			ProfileSeed: phasedProfileBase + seed*poolSize + i,
			Phased:      &workload.PhasedOptions{Divergence: 0.5},
		})
	}
	return out
}

// phasedProfileBase keeps the profiling walks clear of the deployment
// walks (a profile on the deployment walk itself is the oracle case).
const phasedProfileBase = 10000

// prewarm materialises every lazily merged execution schedule of the
// trace, so no timed repetition pays for the one-time merge.
func prewarm(tr *trace.Trace) {
	for i := range tr.Iterations {
		tr.MergedLoads(i)
	}
}

type input struct {
	opts workload.Options
	w    *workload.Result
}

// label names the input in notes and failures.
func (in input) label() string {
	if in.opts.Phased != nil {
		return fmt.Sprintf("walk %d/profile %d", in.opts.Seed, in.opts.ProfileSeed)
	}
	return fmt.Sprintf("video seed %d", in.opts.Seed)
}

// buildPool builds and pre-warms the run's inputs, returning them with the
// per-input build and merge times.
func buildPool(opts []workload.Options) ([]input, []float64, []float64, error) {
	var pool []input
	var build, merge []float64
	for _, o := range opts {
		t0 := time.Now()
		w, err := workload.Build(o)
		if err != nil {
			return nil, nil, nil, err
		}
		t1 := time.Now()
		prewarm(w.Trace)
		t2 := time.Now()
		pool = append(pool, input{opts: o, w: w})
		build = append(build, t1.Sub(t0).Seconds())
		merge = append(merge, t2.Sub(t1).Seconds())
	}
	return pool, build, merge, nil
}

// setupPool runs the whole set-up setupReps times and keeps the last
// build; setup_s is the median, so one slow set-up does not move it.
func setupPool(opts []workload.Options, res *result) ([]input, error) {
	var times, build, merge []float64
	var pool []input
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, b, m, err := buildPool(opts)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		pool, build, merge = p, append(build, b...), append(merge, m...)
	}
	res.set("setup_s", median(times))
	res.set("workload.build_s", median(build))
	res.set("trace.merge_s", median(merge))
	return pool, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// latencies is a concurrency-safe sample of durations in seconds.
type latencies struct {
	mu sync.Mutex
	xs []float64
}

func (l *latencies) add(xs ...float64) {
	l.mu.Lock()
	l.xs = append(l.xs, xs...)
	l.mu.Unlock()
}

// iterLatencies keeps each block iteration's latency per repetition, by
// point, for one input.
type iterLatencies struct {
	mu  sync.Mutex
	per map[int][][]float64
}

func (l *iterLatencies) add(point int, lat []float64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.per == nil {
		l.per = map[int][][]float64{}
	}
	l.per[point] = append(l.per[point], lat)
	l.mu.Unlock()
}

// medians returns every block iteration's median latency over the
// repetitions: the steady cost of that iteration, with bursts of host
// noise taken out.
func (l *iterLatencies) medians() []float64 {
	var out []float64
	for _, reps := range l.per {
		for j := range reps[0] {
			xs := make([]float64, 0, len(reps))
			for _, r := range reps {
				xs = append(xs, r[j])
			}
			out = append(out, median(xs))
		}
	}
	return out
}

// layerAcc accumulates the host time and exact counts of the traced
// simulations of one repetition.
type layerAcc struct {
	mu                                 sync.Mutex
	pointNS, simNS                     int64
	triggerNS, executeNS, blockEndNS   int64
	executions, evictions, evaluations int64
	l1Hits, l1Misses, shHits, shMisses int64
}

func (a *layerAcc) addSim(d *tracedRTS, simNS int64, rep *sim.Report) {
	st := d.Stats()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.simNS += simNS
	a.triggerNS += d.triggerNS
	a.executeNS += d.executeNS()
	a.blockEndNS += d.blockEndNS
	a.executions += rep.Executions
	a.evictions += rep.Reconfig.Evictions
	a.evaluations += st.Evaluations
	a.l1Hits += st.CacheHits
	a.l1Misses += st.CacheMisses
	a.shHits += st.SharedHits
	a.shMisses += st.SharedMisses
}

// runTraced replays one simulation under the tracing decorator, exactly
// as exp.RunPoint would: the memo is attached to the undecorated system,
// which refuses it itself when its selection is not the greedy one.
func runTraced(tr *tracer, parent int64, item string, rts core.RuntimeSystem, memo *selector.Memo, w *workload.Result, acc *layerAcc) (*sim.Report, error) {
	if memo != nil {
		if m, ok := rts.(interface{ SetSharedMemo(*selector.Memo) bool }); ok {
			m.SetSharedMemo(memo)
		}
	}
	id := int64(0)
	if tr != nil {
		id = tr.newID()
	}
	d := &tracedRTS{RuntimeSystem: rts, tr: tr, parent: id, item: item}
	t0 := time.Now()
	rep, err := sim.Run(w.App, w.Trace, d)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	d.flushExecute()
	if tr != nil {
		tr.add(id, parent, "sim.run", item, t0, t1)
	}
	acc.addSim(d, t1.Sub(t0).Nanoseconds(), rep)
	return rep, nil
}

// tracedEngine evaluates figure points the way batch.Engine does — one
// simulation per distinct (config, policy), racing requests joining it,
// the engine's selection memo shared across points — but builds each
// runtime system itself so it can wrap it in the tracing decorator;
// batch.Engine offers no seam for that. The output check holds it to the
// engine's bytes.
type tracedEngine struct {
	w    *workload.Result
	memo *selector.Memo
	tr   *tracer
	acc  *layerAcc

	mu     sync.Mutex
	points map[string]*tracedPoint
	parent int64 // the figure span the current points belong to
}

type tracedPoint struct {
	once sync.Once
	rep  *sim.Report
	err  error
}

func (e *tracedEngine) evaluator() exp.Evaluator {
	return func(ctx context.Context, cfg arch.Config, p exp.Policy) (*sim.Report, error) {
		item := fmt.Sprintf("%s/%dx%d", p, cfg.NPRC, cfg.NCG)
		t0 := time.Now()
		e.mu.Lock()
		ent, ok := e.points[item]
		if !ok {
			ent = &tracedPoint{}
			e.points[item] = ent
		}
		parent := e.parent
		e.mu.Unlock()
		id := int64(0)
		if e.tr != nil {
			id = e.tr.newID()
		}
		ent.once.Do(func() {
			rts, err := exp.NewPolicy(p, cfg, e.w.App, e.w.Trace)
			if err != nil {
				ent.err = err
				return
			}
			ent.rep, ent.err = runTraced(e.tr, id, item, rts, e.memo, e.w, e.acc)
		})
		t1 := time.Now()
		if e.tr != nil {
			e.tr.add(id, parent, "exp.point", item, t0, t1)
		}
		e.acc.mu.Lock()
		e.acc.pointNS += t1.Sub(t0).Nanoseconds()
		e.acc.mu.Unlock()
		return ent.rep, ent.err
	}
}

// figsRep is what one regeneration of `-fig all` produced and cost.
type figsRep struct {
	text        []byte
	speedup     float64 // Fig. 8 average mRTS speedup over offline-optimal
	sweepWall   float64 // seconds inside Figs. 8-10 (the evaluator sweeps)
	unwrapped   float64 // seconds inside the overhead and shared figures
	pointBusyNS int64
}

// renderFigs regenerates `mrts-sweep -fig all` into a buffer: the same
// harness calls, bounds and separators the command uses. setParent, when
// non-nil, is told the span of the figure about to run.
func renderFigs(ctx context.Context, w *workload.Result, eval exp.Evaluator, tr *tracer, parent int64, setParent func(int64)) (figsRep, error) {
	var out figsRep
	var buf bytes.Buffer
	fig := func(name string, f func() error) error {
		id := int64(0)
		if tr != nil {
			id = tr.newID()
		}
		if setParent != nil {
			setParent(id)
		}
		t0 := time.Now()
		err := f()
		t1 := time.Now()
		if tr != nil {
			tr.add(id, parent, "exp.fig"+name, "", t0, t1)
		}
		switch name {
		case "overhead", "shared":
			out.unwrapped += t1.Sub(t0).Seconds()
		default:
			out.sweepWall += t1.Sub(t0).Seconds()
		}
		return err
	}
	steps := []struct {
		name string
		f    func() error
	}{
		{"8", func() error {
			r, err := exp.Fig8(ctx, eval, 4, 3)
			if err == nil {
				r.Render(&buf)
				out.speedup = r.AvgSpeedup[exp.PolicyOffline]
			}
			return err
		}},
		{"9", func() error {
			r, err := exp.Fig9(ctx, eval, 4, 3)
			if err == nil {
				r.Render(&buf)
			}
			return err
		}},
		{"10", func() error {
			r, err := exp.Fig10(ctx, eval, 3, 3)
			if err == nil {
				r.Render(&buf)
			}
			return err
		}},
		{"overhead", func() error {
			r, err := exp.Overhead(w, arch.Config{NPRC: 2, NCG: 2})
			if err == nil {
				r.Render(&buf)
			}
			return err
		}},
		{"shared", func() error {
			r, err := exp.Shared(ctx, w, arch.Config{NPRC: 4, NCG: 3})
			if err == nil {
				r.Render(&buf)
			}
			return err
		}},
	}
	for i, s := range steps {
		if i > 0 {
			buf.WriteString("\n")
		}
		if err := fig(s.name, s.f); err != nil {
			return out, fmt.Errorf("fig %s: %w", s.name, err)
		}
	}
	out.text = buf.Bytes()
	return out, nil
}

// figsUntraced is one timed repetition: a fresh batch engine, as a cold
// `mrts-sweep -fig all -workers n` builds.
func figsUntraced(w *workload.Result, workers int, pts *latencies) (figsRep, batch.Stats, error) {
	eng := batch.New(w, 0)
	inner := eng.Evaluator()
	var busyMu sync.Mutex
	var busy int64
	eval := func(ctx context.Context, cfg arch.Config, p exp.Policy) (*sim.Report, error) {
		t0 := time.Now()
		rep, err := inner(ctx, cfg, p)
		d := time.Since(t0)
		pts.add(d.Seconds())
		busyMu.Lock()
		busy += d.Nanoseconds()
		busyMu.Unlock()
		return rep, err
	}
	ctx := exp.WithSelectionMemo(exp.WithWorkers(context.Background(), workers), eng.Memo())
	r, err := renderFigs(ctx, w, eval, nil, 0, nil)
	r.pointBusyNS = busy
	return r, eng.Stats(), err
}

// figsTraced is one traced repetition at one worker, so the layer self
// times partition the repetition's wall clock.
func figsTraced(w *workload.Result, tr *tracer, item string, acc *layerAcc) (figsRep, float64, error) {
	eng := &tracedEngine{w: w, memo: batch.New(w, 0).Memo(), tr: tr, acc: acc, points: map[string]*tracedPoint{}}
	setParent := func(id int64) {
		eng.mu.Lock()
		eng.parent = id
		eng.mu.Unlock()
	}
	rid := int64(0)
	if tr != nil {
		rid = tr.newID()
	}
	ctx := exp.WithSelectionMemo(exp.WithWorkers(context.Background(), 1), eng.memo)
	t0 := time.Now()
	r, err := renderFigs(ctx, w, eng.evaluator(), tr, rid, setParent)
	t1 := time.Now()
	if tr != nil {
		tr.add(rid, 0, "rep", item, t0, t1)
	}
	return r, t1.Sub(t0).Seconds(), err
}

// referenceFigs is the text `mrts-sweep -fig all` prints for the input:
// its stored digest, or, for a seed without one, a direct evaluation with
// no reuse layer at all.
func referenceFigs(in input, digests map[string]string) (string, error) {
	if d, ok := digests[fmt.Sprint(in.opts.Seed)]; ok {
		return d, nil
	}
	ctx := exp.WithWorkers(context.Background(), batchWorkers)
	r, err := renderFigs(ctx, in.w, exp.DirectEvaluator(in.w), nil, 0, nil)
	if err != nil {
		return "", err
	}
	return digest(r.text), nil
}

// phasedPolicies are the four points of one phased repetition: the RISC
// reference, then mRTS with each MPU predictor.
var phasedPolicies = append([]string{"risc"}, kindNames(exp.PhasePredictors)...)

func kindNames(ks []mpu.Kind) []string {
	var out []string
	for _, k := range ks {
		out = append(out, string(k))
	}
	return out
}

// phasedRTS builds the runtime system of one phased point the way
// exp.RunPoint (RISC) and exp.RunPointPredictor (mRTS) build it.
func phasedRTS(i int) (core.RuntimeSystem, error) {
	if i == 0 {
		return core.NewRISCOnly(), nil
	}
	k := exp.PhasePredictors[i-1]
	return core.New(exp.PhaseConfig, core.Options{
		ChargeOverhead: true,
		MPU:            []mpu.Option{mpu.WithPredictor(k)},
		Name:           "mRTS/" + string(k),
	})
}

// phasedReports renders the four points as `mrts-sim -json` prints them.
func phasedReports(reps []*sim.Report) ([]string, float64, error) {
	var out []string
	for _, r := range reps {
		ar := api.NewReport(r, reps[0])
		b, err := api.MarshalIndentReport(&ar)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, digest(b))
	}
	// reps[2] is the phase-table predictor (see phasedPolicies).
	return out, reps[2].Speedup(reps[0]), nil
}

// phasedUntraced is one timed repetition: the four points over the sweep
// pool, each replayed step by step so every block iteration is timed.
func phasedUntraced(w *workload.Result, workers int, pts *latencies, iters *iterLatencies) ([]*sim.Report, int64, error) {
	var busyMu sync.Mutex
	var busy int64
	ctx := exp.WithWorkers(context.Background(), workers)
	reps, err := exp.ParMap(ctx, len(phasedPolicies), func(ctx context.Context, i int) (*sim.Report, error) {
		t0 := time.Now()
		rts, err := phasedRTS(i)
		if err != nil {
			return nil, err
		}
		s, err := sim.NewStepper(w.App, w.Trace, rts, sim.Options{})
		if err != nil {
			return nil, err
		}
		lat := make([]float64, 0, len(w.Trace.Iterations))
		for !s.Done() {
			s0 := time.Now()
			if err := s.Step(); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(s0).Seconds())
		}
		rep := s.Finish()
		d := time.Since(t0)
		iters.add(i, lat)
		pts.add(d.Seconds())
		busyMu.Lock()
		busy += d.Nanoseconds()
		busyMu.Unlock()
		return rep, nil
	})
	return reps, busy, err
}

// phasedTraced is one traced repetition at one worker.
func phasedTraced(w *workload.Result, tr *tracer, item string, acc *layerAcc) ([]*sim.Report, float64, error) {
	rid := int64(0)
	if tr != nil {
		rid = tr.newID()
	}
	t0 := time.Now()
	var reps []*sim.Report
	for i, name := range phasedPolicies {
		pid := int64(0)
		if tr != nil {
			pid = tr.newID()
		}
		p0 := time.Now()
		rts, err := phasedRTS(i)
		if err != nil {
			return nil, 0, err
		}
		rep, err := runTraced(tr, pid, item+"/"+name, rts, nil, w, acc)
		if err != nil {
			return nil, 0, err
		}
		p1 := time.Now()
		if tr != nil {
			tr.add(pid, rid, "exp.point", item+"/"+name, p0, p1)
		}
		acc.mu.Lock()
		acc.pointNS += p1.Sub(p0).Nanoseconds()
		acc.mu.Unlock()
		reps = append(reps, rep)
	}
	t1 := time.Now()
	if tr != nil {
		tr.add(rid, 0, "rep", item, t0, t1)
	}
	return reps, t1.Sub(t0).Seconds(), nil
}

// referencePhased is the digests of what `mrts-sim -phased -json` prints
// for each point of the input, evaluated directly through the harness
// entry points, joined in phasedPolicies order.
func referencePhased(in input) (string, error) {
	ref, err := exp.RunPoint(nil, in.w, arch.Config{}, exp.PolicyRISC)
	if err != nil {
		return "", err
	}
	reps := []*sim.Report{ref}
	for _, k := range exp.PhasePredictors {
		r, err := exp.RunPointPredictor(nil, in.w, exp.PhaseConfig, k, nil)
		if err != nil {
			return "", err
		}
		reps = append(reps, r)
	}
	ds, _, err := phasedReports(reps)
	return strings.Join(ds, ","), err
}

// layerShares splits the traced repetitions' covered time (the spans of
// the figures, or of the points where there are no figures) into per-layer
// self times, in seconds per repetition, and names the largest.
func layerShares(acc *layerAcc, reps int, covered, unwrapped float64) (map[string]float64, string) {
	n := float64(reps)
	s := func(ns int64) float64 { return float64(ns) / 1e9 / n }
	l := map[string]float64{
		"core.trigger":   s(acc.triggerNS),
		"core.execute":   s(acc.executeNS),
		"core.block_end": s(acc.blockEndNS),
		"sim.self":       s(acc.simNS - acc.triggerNS - acc.executeNS - acc.blockEndNS),
		"exp.point":      s(acc.pointNS - acc.simNS),
		"exp.unwrapped":  unwrapped / n,
		"exp.figures":    (covered-unwrapped)/n - s(acc.pointNS),
	}
	var names []string
	for k := range l {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return l[names[i]] > l[names[j]] })
	return l, names[0]
}
