package service

import (
	"context"
	"strings"
	"testing"
	"time"

	"mrts/internal/service/api"
)

// TestBatchMetrics pins the /metrics surface of the batch sweep path: the
// point counter ticks for every evaluator call, and fig/sweep jobs land in
// the batch wall-clock histogram.
func TestBatchMetrics(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	run := func(spec api.JobSpec) {
		t.Helper()
		id, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		st, err := c.Wait(ctx, id, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
		}
	}

	// A sim job evaluates the RISC reference plus the point itself.
	run(api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 1, CG: 1, Policy: "mrts"})
	if got := s.batchPoints.Value(); got < 2 {
		t.Errorf("mrts_batch_points_total = %d after sim job, want >= 2", got)
	}
	if got := s.batchSeconds.Count(); got != 0 {
		t.Errorf("mrts_batch_seconds count = %d after sim job, want 0 (sim is not a sweep)", got)
	}

	run(api.JobSpec{Type: api.JobFig, Fig: "tenants", Workload: testWorkload,
		Tenants: 1, MaxPRC: 2, MaxCG: 1})
	if got := s.batchSeconds.Count(); got != 1 {
		t.Errorf("mrts_batch_seconds count = %d after fig job, want 1", got)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mrts_batch_points_total", "mrts_batch_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %s", want)
		}
	}
}
