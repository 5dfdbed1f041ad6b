// Package batch is the batch sweep-evaluation engine: it wraps the
// experiment harness's point evaluator (exp.PointEvaluator) with two
// layers of cross-point reuse that leave every simulated cycle untouched:
//
//   - a point-level report memo, deduplicating identical exp.Point
//     evaluations across figures, concurrent sweeps and service jobs (the
//     "-fig all" pipeline re-evaluates the RISC reference and overlapping
//     combinations many times), with singleflight semantics so racing
//     workers share one simulation;
//   - a workload-wide selection memo (selector.Memo) attached to every
//     greedy-selector policy the evaluators build, so the ISE selection
//     computed at one sweep point seeds neighbouring points whose selector
//     inputs coincide once free capacity is clamped at the block's demand
//     bound (see selector.DemandBound).
//
// Both layers replay exact, fingerprint-keyed results, so batch output is
// byte-identical to direct evaluation for every policy, with and without
// faults — pinned by the identity tests in this package.
package batch

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"mrts/internal/exp"
	"mrts/internal/fault"
	"mrts/internal/obs"
	"mrts/internal/selector"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// Stats is a snapshot of an Engine's reuse counters.
type Stats struct {
	// Points counts point evaluations requested; PointHits of those were
	// replayed from the point-level report memo (or joined an identical
	// in-flight evaluation) instead of simulating.
	Points    int64
	PointHits int64
	// SeedHits / SeedMisses are the shared selection memo's traffic: the
	// selections answered across policy instances and sweep points
	// without re-running the greedy algorithm, versus computed for real.
	SeedHits   uint64
	SeedMisses uint64
}

// maxPoints bounds the point-report memo. A sweep never comes near it
// ("-fig all" evaluates 158 points); the bound exists because service
// clients choose fault seeds freely, so distinct points are unbounded.
const maxPoints = 4096

// pointEntry is a singleflight slot: the first goroutine to claim the key
// runs the simulation; concurrent requesters wait on done and share the
// result. Only completed, successful entries join the LRU list (el != nil),
// so eviction never pulls an in-flight entry from under its waiters.
type pointEntry struct {
	key  exp.Point
	done chan struct{}
	rep  *sim.Report
	err  error
	el   *list.Element
}

// Engine evaluates sweep points over one workload with cross-point reuse.
// It is safe for concurrent use; one Engine serves a workload for as long
// as its owner keeps it (a whole mrts-sweep run, or a workload's lifetime
// in mrts-serve's workload cache). Reports it returns are shared across
// callers and must be treated as read-only — the aggregation code in
// internal/exp already does.
type Engine struct {
	w    *workload.Result
	memo *selector.Memo

	mu        sync.Mutex
	maxPoints int
	points    map[exp.Point]*pointEntry
	lru       *list.List // completed entries, front = most recently used

	requests atomic.Int64
	hits     atomic.Int64
}

// New creates an engine over the workload. memoSize bounds the shared
// selection memo (selector.DefaultMemoSize if <= 0).
func New(w *workload.Result, memoSize int) *Engine {
	return &Engine{
		w:         w,
		memo:      selector.NewMemo(memoSize),
		maxPoints: maxPoints,
		points:    make(map[exp.Point]*pointEntry),
		lru:       list.New(),
	}
}

// LazyInput returns in with Eval and Workload served by one engine on
// in.Base's workload, which the first call of either builds: a figure that
// needs neither (Fig. 1, calibration, phase) builds nothing. engine
// returns that engine, or nil while nothing has built it.
func LazyInput(in exp.FigInput) (out exp.FigInput, engine func() *Engine) {
	var built atomic.Pointer[Engine]
	get := sync.OnceValues(func() (*Engine, error) {
		w, err := workload.Build(in.Base)
		if err != nil {
			return nil, err
		}
		e := New(w, 0)
		built.Store(e)
		return e, nil
	})
	in.Eval = func(ctx context.Context, pt exp.Point) (*sim.Report, error) {
		e, err := get()
		if err != nil {
			return nil, err
		}
		rep, _, err := e.Eval(ctx, pt)
		return rep, err
	}
	in.Workload = func(context.Context) (*workload.Result, *selector.Memo, error) {
		e, err := get()
		if err != nil {
			return nil, nil, err
		}
		return e.w, e.memo, nil
	}
	return in, built.Load
}

// Workload returns the workload the engine evaluates on.
func (e *Engine) Workload() *workload.Result { return e.w }

// Memo returns the engine's shared selection memo, for callers that drive
// additional harness entry points (e.g. the tenant sweep) under the same
// cross-point reuse via exp.WithSelectionMemo.
func (e *Engine) Memo() *selector.Memo { return e.memo }

// Stats returns a snapshot of the engine's reuse counters.
func (e *Engine) Stats() Stats {
	ms := e.memo.Stats()
	return Stats{
		Points:     e.requests.Load(),
		PointHits:  e.hits.Load(),
		SeedHits:   ms.Hits,
		SeedMisses: ms.Misses,
	}
}

// Evaluator returns the engine's fault-free point evaluator, the drop-in
// replacement for exp.DirectEvaluator.
func (e *Engine) Evaluator() exp.Evaluator { return e.PointEvaluator().Plain() }

// PointEvaluator returns the engine's point evaluator, the drop-in
// replacement for exp.DirectPointEvaluator.
func (e *Engine) PointEvaluator() exp.PointEvaluator {
	return func(ctx context.Context, pt exp.Point) (*sim.Report, error) {
		rep, _, err := e.Eval(ctx, pt)
		return rep, err
	}
}

// key normalises a point into its memo key: a benign scenario runs the
// plain fault-free path whatever its seed, horizon or flap-length fields
// say (no schedule is built), so it shares the fault-free point's entry.
func key(pt exp.Point) exp.Point {
	if pt.Faults.IsZero() {
		pt.Seed, pt.Faults = 0, fault.Options{}
	}
	return pt
}

// Eval returns the report of one point, simulating it only if no earlier
// or in-flight request for the same point can supply it. hit reports that
// nothing was simulated for this call: the report was replayed from the
// memo or shared with an identical in-flight evaluation. Failed
// evaluations are never cached; a waiter whose evaluation failed under
// someone else's context (a cancelled job) retries under its own.
func (e *Engine) Eval(ctx context.Context, pt exp.Point) (rep *sim.Report, hit bool, err error) {
	e.requests.Add(1)
	k := key(pt)
	for {
		e.mu.Lock()
		ent, ok := e.points[k]
		if !ok {
			ent = &pointEntry{key: k, done: make(chan struct{})}
			e.points[k] = ent
		} else if ent.el != nil {
			e.lru.MoveToFront(ent.el)
		}
		e.mu.Unlock()
		if !ok {
			e.run(ctx, ent)
			return ent.rep, false, ent.err
		}

		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil, false, context.Cause(ctx)
		}
		if ent.err == nil {
			e.hits.Add(1)
			return ent.rep, true, nil
		}
		if ctx.Err() != nil {
			return nil, false, context.Cause(ctx)
		}
	}
}

// run simulates a claimed entry and publishes the outcome: a success joins
// the LRU (evicting the least recently used completed entry beyond the
// bound), a failure — including a panic — is removed before the waiters
// wake, so none of them can find it again.
func (e *Engine) run(ctx context.Context, ent *pointEntry) {
	defer func() {
		e.mu.Lock()
		if ent.err == nil && ent.rep == nil {
			ent.err = errors.New("batch: point evaluation panicked")
		}
		if ent.err != nil {
			delete(e.points, ent.key)
		} else {
			e.remember(ent)
		}
		e.mu.Unlock()
		close(ent.done)
	}()
	ent.rep, ent.err = exp.RunPointObserved(exp.WithSelectionMemo(ctx, e.memo), e.w, ent.key, nil)
}

// remember adds a completed entry to the LRU; e.mu must be held.
func (e *Engine) remember(ent *pointEntry) {
	ent.el = e.lru.PushFront(ent)
	if e.lru.Len() > e.maxPoints {
		old := e.lru.Remove(e.lru.Back()).(*pointEntry)
		delete(e.points, old.key)
	}
}

// Observe simulates one point with rec attached — always for real, since a
// trace must come from a run — and memoises the report, which the
// observer-off byte-identity guarantee makes equal to the untraced one, for
// later Eval calls.
func (e *Engine) Observe(ctx context.Context, pt exp.Point, rec *obs.Recorder) (*sim.Report, error) {
	rep, err := exp.RunPointObserved(ctx, e.w, pt, rec)
	if err != nil {
		return nil, err
	}
	k := key(pt)
	e.mu.Lock()
	if _, ok := e.points[k]; !ok {
		ent := &pointEntry{key: k, done: make(chan struct{}), rep: rep}
		close(ent.done)
		e.points[k] = ent
		e.remember(ent)
	}
	e.mu.Unlock()
	return rep, nil
}
