package batch

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/exp"
	"mrts/internal/fault"
	"mrts/internal/sim"
	"mrts/internal/video"
	"mrts/internal/workload"
)

// batchWorkload mirrors the exp package's integration fixture: the
// calibrated QCIF regime with a shortened sequence, so full simulations
// run in milliseconds.
var batchWorkload = workload.MustBuild(workload.Options{
	Frames: 8,
	Video:  video.Options{SceneCuts: []int{4}},
})

// batchPolicies is every policy the identity guard covers: the Fig. 8
// competitors plus the RISC reference and the online-optimal selector
// (which keeps its exact algorithm — the shared memo only attaches to
// greedy-default systems).
var batchPolicies = append([]exp.Policy{exp.PolicyRISC, exp.PolicyOptimal}, exp.Fig8Policies...)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchIdenticalEveryPolicy is the batch engine's determinism guard:
// for every policy, a report served through the engine (point memo +
// shared selection memo) must be byte-identical (JSON) to a direct
// evaluation. The engine may only remove host-side work, never change a
// simulated cycle.
func TestBatchIdenticalEveryPolicy(t *testing.T) {
	ctx := context.Background()
	cfg := arch.Config{NPRC: 2, NCG: 2}
	eng := New(batchWorkload, 0)
	eval := eng.Evaluator()
	for _, p := range batchPolicies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			pc := cfg
			if p == exp.PolicyRISC {
				pc = arch.Config{}
			}
			batched, err := eval(ctx, pc, p)
			if err != nil {
				t.Fatal(err)
			}
			direct, err := exp.RunPoint(ctx, batchWorkload, pc, p)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mustJSON(t, batched), mustJSON(t, direct); !bytes.Equal(a, b) {
				t.Errorf("batched report differs from direct:\n%s\n%s", a, b)
			}
		})
	}
}

// TestBatchIdenticalUnderFaults extends the guard to faulted runs: fault
// events invalidate selections mid-run, and the re-selections must replay
// identically whether or not they were seeded from the shared memo.
func TestBatchIdenticalUnderFaults(t *testing.T) {
	ctx := context.Background()
	cfg := arch.Config{NPRC: 2, NCG: 2}
	fo := fault.Options{FailPRC: 1, FailCG: 1, Horizon: 1_000_000}
	const seed = 7

	eng := New(batchWorkload, 0)
	feval := eng.PointEvaluator()
	for _, p := range exp.Fig8Policies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			batched, err := feval(ctx, exp.Point{Config: cfg, Policy: p, Seed: seed, Faults: fo})
			if err != nil {
				t.Fatal(err)
			}
			direct, err := exp.RunPointFaults(ctx, batchWorkload, cfg, p, seed, fo)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mustJSON(t, batched), mustJSON(t, direct); !bytes.Equal(a, b) {
				t.Errorf("batched faulted report differs from direct:\n%s\n%s", a, b)
			}
		})
	}
}

// TestFaultsSweepSeededIdentical runs the whole degradation sweep through
// the engine and directly, and requires identical results plus real
// cross-point reuse: rows share their pre-fault selection prefixes, so the
// shared memo must score hits.
func TestFaultsSweepSeededIdentical(t *testing.T) {
	ctx := context.Background()
	cfg := arch.Config{NPRC: 2, NCG: 2}
	eng := New(batchWorkload, 0)

	seeded, err := exp.Faults(ctx, eng.PointEvaluator(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := exp.Faults(ctx, exp.DirectPointEvaluator(batchWorkload), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, seeded), mustJSON(t, direct); !bytes.Equal(a, b) {
		t.Errorf("seeded faults sweep differs from direct:\n%s\n%s", a, b)
	}

	st := eng.Stats()
	if st.Points == 0 {
		t.Fatal("engine saw no points")
	}
	if st.SeedHits == 0 {
		t.Error("faults sweep scored no seed hits; rows share pre-fault prefixes and should seed each other")
	}
}

// TestTenantsSeededIdentical pins the tenant sweep under the shared memo:
// results with a memo on the context must be byte-identical to results
// without one, and the K=1 static/migrating pair (identical runs) must
// guarantee seed hits.
func TestTenantsSeededIdentical(t *testing.T) {
	base := workload.Options{Frames: 8, Video: video.Options{SceneCuts: []int{4}}}
	phys := arch.Config{NPRC: 2, NCG: 2}
	ctx := context.Background()

	eng := New(batchWorkload, 0)
	seeded, err := exp.Tenants(exp.WithSelectionMemo(ctx, eng.Memo()),
		exp.DirectWorkloads(), base, phys, 2, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := exp.Tenants(ctx, exp.DirectWorkloads(), base, phys, 2, "uniform")
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, seeded), mustJSON(t, direct); !bytes.Equal(a, b) {
		t.Errorf("seeded tenant sweep differs from direct:\n%s\n%s", a, b)
	}
	if hits := eng.Memo().Stats().Hits; hits == 0 {
		t.Error("tenant sweep scored no seed hits; the static and migrating halves run identical tenants")
	}
}

// TestPointMemoSingleflight exercises the point-level report memo: racing
// requests for one point share a single simulation, repeat requests replay
// it, and every caller gets the same report.
func TestPointMemoSingleflight(t *testing.T) {
	eng := New(batchWorkload, 0)
	eval := eng.Evaluator()
	cfg := arch.Config{NPRC: 1, NCG: 1}

	const n = 8
	reports := make([]*sim.Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := eval(context.Background(), cfg, exp.PolicyMRTS)
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("request %d got a different report object", i)
		}
	}
	st := eng.Stats()
	if st.Points != n {
		t.Errorf("Points = %d, want %d", st.Points, n)
	}
	if st.PointHits != n-1 {
		t.Errorf("PointHits = %d, want %d (one simulation, %d replays)", st.PointHits, n-1, n-1)
	}
}

// TestBenignFaultNormalised pins the fault evaluator's key normalisation:
// a benign scenario (zero fail counts) runs the fault-free path whatever
// its seed or horizon say, so it must share the fault-free point's memo
// entry rather than simulate again.
func TestBenignFaultNormalised(t *testing.T) {
	eng := New(batchWorkload, 0)
	cfg := arch.Config{NPRC: 1, NCG: 1}
	ctx := context.Background()

	plain, err := eng.Evaluator()(ctx, cfg, exp.PolicyMRTS)
	if err != nil {
		t.Fatal(err)
	}
	benign, err := eng.PointEvaluator()(ctx, exp.Point{Config: cfg, Policy: exp.PolicyMRTS, Seed: 99, Faults: fault.Options{Horizon: 12345}})
	if err != nil {
		t.Fatal(err)
	}
	if plain != benign {
		t.Error("benign fault scenario did not share the fault-free point's memo entry")
	}
	if st := eng.Stats(); st.PointHits != 1 {
		t.Errorf("PointHits = %d, want 1", st.PointHits)
	}
}

// TestPointMemoLRU pins the point memo's bound: beyond it the least
// recently used report is evicted, an evicted point simulates again to a
// JSON-equal report, and a failed evaluation leaves no entry behind.
func TestPointMemoLRU(t *testing.T) {
	eng := New(batchWorkload, 0)
	eng.maxPoints = 2
	ctx := context.Background()
	a := arch.Config{NPRC: 1, NCG: 0}
	b := arch.Config{NPRC: 0, NCG: 1}
	c := arch.Config{NPRC: 1, NCG: 1}
	eval := func(cfg arch.Config) (*sim.Report, bool) {
		t.Helper()
		rep, hit, err := eng.Eval(ctx, exp.Point{Config: cfg, Policy: exp.PolicyMRTS})
		if err != nil {
			t.Fatal(err)
		}
		return rep, hit
	}

	first, _ := eval(a)
	eval(b)
	if _, hit := eval(a); !hit { // a is now the most recently used
		t.Fatal("a missing")
	}
	eval(c) // evicts b, the least recently used
	if _, hit := eval(a); !hit {
		t.Error("a should have survived")
	}
	if _, hit := eval(c); !hit {
		t.Error("c should be present")
	}
	if _, hit := eval(b); hit {
		t.Error("b should have been evicted")
	}
	again, hit := eval(a) // evicted by b's return
	if hit {
		t.Error("a should have been evicted by b's re-evaluation")
	}
	if again == first {
		t.Error("evicted point replayed its old report object")
	}
	if x, y := mustJSON(t, again), mustJSON(t, first); !bytes.Equal(x, y) {
		t.Errorf("re-simulated report differs:\n%s\n%s", x, y)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	d := arch.Config{NPRC: 2, NCG: 2}
	if _, _, err := eng.Eval(cancelled, exp.Point{Config: d, Policy: exp.PolicyMRTS}); err == nil {
		t.Fatal("cancelled evaluation succeeded")
	}
	eng.mu.Lock()
	_, cached := eng.points[exp.Point{Config: d, Policy: exp.PolicyMRTS}]
	n := len(eng.points)
	eng.mu.Unlock()
	if cached || n != 2 {
		t.Errorf("failed evaluation left an entry (cached %v, %d entries, want 2)", cached, n)
	}
}

// TestWaiterRetriesAfterOwnerFails: a request joined to an evaluation that
// fails under its owner's context (a cancelled job) must not inherit the
// failure; it simulates under its own context instead.
func TestWaiterRetriesAfterOwnerFails(t *testing.T) {
	eng := New(batchWorkload, 0)
	cfg := arch.Config{NPRC: 1, NCG: 1}
	k := exp.Point{Config: cfg, Policy: exp.PolicyMRTS}
	// Plant an in-flight entry, as an owner would, then fail it.
	owner := &pointEntry{key: k, done: make(chan struct{})}
	eng.points[k] = owner

	type result struct {
		rep *sim.Report
		hit bool
		err error
	}
	got := make(chan result)
	go func() {
		rep, hit, err := eng.Eval(context.Background(), k)
		got <- result{rep, hit, err}
	}()
	for eng.requests.Load() == 0 { // let the waiter reach the entry
		runtime.Gosched()
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	eng.run(cancelled, owner)
	if owner.err == nil {
		t.Fatal("owner ran under a cancelled context without failing")
	}
	r := <-got
	if r.err != nil || r.rep == nil {
		t.Fatalf("waiter inherited the owner's failure: %v", r.err)
	}
	if r.hit {
		t.Error("waiter that simulated reported a hit")
	}
}

// TestSharedOverheadReuseFig8 runs the sharing sweep and the overhead
// analysis on an engine that has already rendered Fig. 8 at the same
// bounds: both must equal their direct results, and exactly the points
// that repeat a Fig. 8 point — the RISC reference, the unreserved mRTS
// row, every recompiled oracle and the overhead point — must replay. The
// reserved mRTS reports must also be byte-identical to direct runs, and
// the overhead point's selection counters come from a run seeded by the
// shared selection memo.
func TestSharedOverheadReuseFig8(t *testing.T) {
	ctx := context.Background()
	bounds := arch.Config{NPRC: 2, NCG: 2}
	eng := New(batchWorkload, 0)
	eval := eng.PointEvaluator()
	if _, err := exp.Fig8(ctx, eng.Evaluator(), bounds.NPRC, bounds.NCG); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()

	shared, err := exp.SharedEval(ctx, eval, bounds)
	if err != nil {
		t.Fatal(err)
	}
	overhead, err := exp.OverheadEval(ctx, eval, batchWorkload.App, bounds)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()

	directShared, err := exp.Shared(ctx, batchWorkload, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, shared), mustJSON(t, directShared); !bytes.Equal(a, b) {
		t.Errorf("batched sharing sweep differs from direct:\n%s\n%s", a, b)
	}
	directOverhead, err := exp.Overhead(batchWorkload, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if overhead != directOverhead {
		t.Errorf("batched overhead differs from direct:\n%+v\n%+v", overhead, directOverhead)
	}
	if overhead.Selections == 0 || overhead.Evaluations == 0 {
		t.Errorf("overhead point reports no selection work: %+v", overhead)
	}

	levels := bounds.NPRC * bounds.NCG
	wantPoints := int64(1 + 2*levels + 1)
	wantHits := int64(1 + 1 + levels + 1)
	if got := after.Points - before.Points; got != wantPoints {
		t.Errorf("points = %d, want %d", got, wantPoints)
	}
	if got := after.PointHits - before.PointHits; got != wantHits {
		t.Errorf("point hits = %d, want %d (RISC, unreserved mRTS, %d oracles, overhead)", got, wantHits, levels)
	}
	if after.SeedHits == 0 {
		t.Error("no selection was seeded across the sweeps")
	}

	for _, row := range shared.Rows {
		pt := exp.Point{Config: bounds, Policy: exp.PolicyMRTS,
			Reserve: arch.Config{NPRC: row.ReservedPRC, NCG: row.ReservedCG}}
		batched, hit, err := eng.Eval(ctx, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Errorf("%s: reserved point was not memoised", pt.Label())
		}
		direct, err := exp.RunPointObserved(ctx, batchWorkload, pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := mustJSON(t, batched), mustJSON(t, direct); !bytes.Equal(a, b) {
			t.Errorf("%s: batched report differs from direct:\n%s\n%s", pt.Label(), a, b)
		}
	}
}

// TestLazyInputBuildsOnDemand pins that the figures reading neither the
// base workload nor a point evaluation (Fig. 1, calibration, phase) never
// build the workload behind LazyInput, and that the first one that does
// builds the one engine both inputs share.
func TestLazyInputBuildsOnDemand(t *testing.T) {
	in, engine := LazyInput(exp.FigInput{
		Base:   workload.Options{Frames: 2, Seed: 1, Video: video.Options{SceneCuts: []int{0, 1}}},
		MaxPRC: 1, MaxCG: 1,
		Workloads: exp.DirectWorkloads(),
	})
	ctx := context.Background()
	for _, name := range []string{"1", "calibration", "phase"} {
		if err := exp.RenderFig(ctx, new(bytes.Buffer), name, in); err != nil {
			t.Fatalf("fig %s: %v", name, err)
		}
		if engine() != nil {
			t.Fatalf("fig %s built the base workload", name)
		}
	}
	if err := exp.RenderFig(ctx, new(bytes.Buffer), "8", in); err != nil {
		t.Fatal(err)
	}
	eng := engine()
	if eng == nil {
		t.Fatal("fig 8 left no engine")
	}
	w, memo, err := in.Workload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if w != eng.Workload() || memo != eng.Memo() || eng.Stats().Points == 0 {
		t.Errorf("Eval and Workload do not share one engine: %+v", eng.Stats())
	}
}
