package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"mrts/internal/selector"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
)

// runDone runs spec to completion. It reports a failure with t.Error (so
// it may run on any goroutine) and returns nil.
func runDone(t *testing.T, c *client.Client, spec api.JobSpec) *api.JobResult {
	t.Helper()
	st, err := c.Run(context.Background(), spec, 5*time.Millisecond)
	if err != nil {
		t.Error(err)
		return nil
	}
	if st.State != api.StateDone {
		t.Errorf("job state = %s (%s), want done", st.State, st.Error)
		return nil
	}
	return st.Result
}

// TestSparseAndExplicitWorkloadShareMemo: a sparse workload spec and the
// same spec with every default spelled out mean one workload, so the
// second job is served entirely from the first one's report memo.
func TestSparseAndExplicitWorkloadShareMemo(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	sparse := api.WorkloadSpec{Frames: 2}
	o := sparse.Options().Canonical()
	explicit := api.WorkloadSpec{Width: o.Width, Height: o.Height, Frames: o.Frames,
		Seed: o.Seed, ProfileSeed: o.ProfileSeed, SceneCuts: o.Video.SceneCuts}
	if explicit.Width == 0 || explicit.Seed == 0 || explicit.ProfileSeed == 0 {
		t.Fatalf("canonical options left defaults unset: %+v", explicit)
	}

	spec := api.JobSpec{Type: api.JobSim, Workload: sparse, PRC: 1, CG: 1, Policy: "mrts"}
	if runDone(t, c, spec) == nil {
		t.FailNow()
	}
	spec.Workload = explicit
	if res := runDone(t, c, spec); res != nil && res.CacheMisses != 0 {
		t.Errorf("explicit-defaults job missed the sparse job's memo %d times", res.CacheMisses)
	}
}

// TestSelectionMemoSharedAcrossJobs: every job on a workload shares its
// engine's selection memo. Two fabrics that both hold every block's demand
// bound at once never run short of free capacity, so they see identical
// selector inputs: the second job's selections are all seed hits on the
// memo the first job filled — and the
// seed-hit counter, flushed from many concurrent jobs, counts each memo
// hit exactly once.
func TestSelectionMemoSharedAcrossJobs(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()
	ent, err := s.workloads.Get(ctx, testWorkload.Options().Canonical())
	if err != nil {
		t.Fatal(err)
	}
	var prc, cg int
	for _, b := range ent.eng.Workload().App.Blocks {
		p, g := selector.DemandBound(b)
		prc, cg = prc+p, cg+g
	}
	memo := ent.eng.Memo()

	spec := api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: prc, CG: cg, Policy: "mrts"}
	if runDone(t, c, spec) == nil {
		t.FailNow()
	}
	before := memo.Stats()
	spec.PRC, spec.CG = prc+1, cg+1
	if runDone(t, c, spec) == nil {
		t.FailNow()
	}
	after := memo.Stats()
	if after.Misses != before.Misses || after.Hits == before.Hits {
		t.Errorf("second fabric above the demand bound selected anew: memo %+v -> %+v", before, after)
	}

	var wg sync.WaitGroup
	for i := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := spec
			sp.PRC, sp.CG = 1+i%3, 1+i/3
			sp.Policy = []string{"mrts", "rispp"}[i%2]
			runDone(t, c, sp)
		}()
	}
	wg.Wait()
	if got, want := s.batchSeedHits.Value(), int64(memo.Stats().Hits); got != want {
		t.Errorf("mrts_batch_seed_hits_total = %d, want the memo's %d hits", got, want)
	}
}

// TestIdenticalJobsSimulateOnce: two identical jobs racing on an uncached
// workload share every simulation through the engine's singleflight — the
// RISC reference and the point each simulate once between them.
func TestIdenticalJobsSimulateOnce(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})
	spec := api.JobSpec{Type: api.JobSim, Workload: api.WorkloadSpec{Frames: 2, Seed: 5},
		PRC: 2, CG: 1, Policy: "mrts"}

	var wg sync.WaitGroup
	results := make([]*api.JobResult, 2)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = runDone(t, c, spec)
		}()
	}
	wg.Wait()
	var misses int64
	for _, r := range results {
		if r == nil {
			t.FailNow()
		}
		misses += r.CacheMisses
	}
	if misses != 2 {
		t.Errorf("summed misses = %d, want 2 (RISC reference + point)", misses)
	}
	if got := s.pointSeconds.Count(); got != 2 {
		t.Errorf("mrts_point_eval_seconds count = %d, want 2", got)
	}
}
