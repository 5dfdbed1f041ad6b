package batch

import (
	"bytes"
	"context"
	"encoding/json"
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
	feval := eng.FaultEvaluator()
	for _, p := range exp.Fig8Policies {
		p := p
		t.Run(string(p), func(t *testing.T) {
			batched, err := feval(ctx, cfg, p, seed, fo)
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

	seeded, err := exp.Faults(ctx, eng.FaultEvaluator(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := exp.Faults(ctx, exp.DirectFaultEvaluator(batchWorkload), cfg, 1)
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
	benign, err := eng.FaultEvaluator()(ctx, cfg, exp.PolicyMRTS, 99, fault.Options{Horizon: 12345})
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
