package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"mrts/internal/exp"
	"mrts/internal/service/api"
	"mrts/internal/workload"
)

func TestFaultSpecValidation(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	bad := api.JobSpec{
		Type: api.JobSim, Workload: testWorkload, PRC: 1, CG: 1, Policy: "mrts",
		Faults: &api.FaultSpec{FailPRC: -1},
	}
	_, err := c.Submit(ctx, bad)
	if err == nil {
		t.Fatal("negative fault count accepted")
	}
	if !strings.Contains(err.Error(), "negative") || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("err = %v, want a 400 naming the negative count", err)
	}
	if _, err := c.Submit(ctx, api.JobSpec{
		Type: api.JobSim, Workload: testWorkload, Policy: "risc",
		Faults: &api.FaultSpec{HorizonMCycles: -1},
	}); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestFaultedSimJob(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	plain := api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 2, CG: 1, Policy: "mrts"}
	base, err := c.Run(ctx, plain, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.Report.Fault != nil {
		t.Errorf("fault-free report carries fault stats: %+v", base.Result.Report.Fault)
	}

	faulted := plain
	faulted.Faults = &api.FaultSpec{Seed: 3, FailPRC: 2, FailCG: 1}
	st, err := c.Run(ctx, faulted, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("faulted job %s: %s", st.State, st.Error)
	}
	r := st.Result.Report
	if r.Fault == nil || r.Fault.Events == 0 || r.Fault.UnitsFailed != 3 {
		t.Fatalf("faulted report fault stats = %+v, want 3 failed units", r.Fault)
	}
	if r.TotalCycles < base.Result.Report.TotalCycles {
		t.Errorf("losing the whole fabric sped the job up: %d < %d",
			r.TotalCycles, base.Result.Report.TotalCycles)
	}
	// The scenario is part of the cache identity: the faulted run was a
	// miss, a repeat of it is a pure hit with the identical report.
	if st.Result.CacheMisses == 0 {
		t.Error("faulted point served from the fault-free cache entry")
	}
	again, err := c.Run(ctx, faulted, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if again.Result.CacheMisses != 0 {
		t.Errorf("repeated faulted job had %d misses", again.Result.CacheMisses)
	}
	if again.Result.Report.TotalCycles != r.TotalCycles {
		t.Error("cached faulted report differs")
	}

	// A zero-count scenario is the benign run: it shares the plain job's
	// cache entry (the reports are bit-identical by the determinism guard).
	benign := plain
	benign.Faults = &api.FaultSpec{Seed: 99}
	z, err := c.Run(ctx, benign, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if z.Result.CacheMisses != 0 {
		t.Errorf("zero-fault job missed the plain job's cache entry (%d misses)", z.Result.CacheMisses)
	}
}

func TestFaultsFigMatchesOfflineSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("degradation sweep is expensive")
	}
	_, c := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()

	w, err := workload.Build(testWorkload.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.Faults(ctx, exp.DirectPointEvaluator(w), exp.FaultsConfig, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantText bytes.Buffer
	want.Render(&wantText)

	spec := api.JobSpec{Type: api.JobFig, Fig: "faults", Workload: testWorkload}
	st, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("faults fig job %s: %s", st.State, st.Error)
	}
	if st.Result.Text != wantText.String() {
		t.Errorf("service faults fig differs from offline render:\n--- service ---\n%s--- offline ---\n%s",
			st.Result.Text, wantText.String())
	}

	// A different fault seed is a different figure (and a cache miss).
	seeded := spec
	seeded.Faults = &api.FaultSpec{Seed: 2}
	other, err := c.Run(ctx, seeded, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if other.Result.Text == st.Result.Text {
		t.Error("fault seed ignored by the faults figure")
	}
}

func TestFaultedSweepJobAndStream(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	fs := &api.FaultSpec{Seed: 5, FailCG: 1}
	spec := api.JobSpec{
		Type: api.JobSweep, Workload: testWorkload,
		Points: []api.Point{{PRC: 1, CG: 1, Policy: "mrts"}, {PRC: 0, CG: 1, Policy: "mrts"}},
		Faults: fs,
	}
	st, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("sweep %s: %s", st.State, st.Error)
	}
	if len(st.Result.Reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(st.Result.Reports))
	}
	for i, r := range st.Result.Reports {
		if r.Fault == nil || r.Fault.UnitsFailed != 1 {
			t.Errorf("sweep point %d fault stats = %+v, want the scenario applied", i, r.Fault)
		}
	}

	// The streaming endpoint shares the same cache identity: the same
	// scenario over the same points is served from the cache.
	var cached int
	final, err := c.Sweep(ctx, api.SweepRequest{Workload: testWorkload, Points: spec.Points, Faults: fs},
		func(ev api.SweepEvent) {
			if ev.Cached {
				cached++
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if final.Completed != 2 || cached != 2 {
		t.Errorf("streamed faulted sweep: completed %d, cached %d, want 2/2", final.Completed, cached)
	}

	// An invalid scenario on the stream is rejected up front.
	if _, err := c.Sweep(ctx, api.SweepRequest{
		Workload: testWorkload, Points: spec.Points,
		Faults: &api.FaultSpec{FailPRC: -2},
	}, nil); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("invalid stream scenario: err = %v, want 400 naming the negative count", err)
	}
}
