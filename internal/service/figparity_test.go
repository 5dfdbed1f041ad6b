package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"mrts/internal/exp"
	"mrts/internal/service/api"
	"mrts/internal/workload"
)

// directFig renders a fig job's figure offline: the figure driver on the
// direct (uncached) evaluator and workload builder, with the job's inputs.
func directFig(t *testing.T, spec api.JobSpec) string {
	t.Helper()
	opts := spec.Workload.Options()
	w, err := workload.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	in := exp.FigInput{
		Base:    opts,
		MaxPRC:  spec.MaxPRC,
		MaxCG:   spec.MaxCG,
		Tenants: spec.Tenants,
		Mix:     spec.Mix,
		Eval:    exp.DirectPointEvaluator(w),
		Workload: func(context.Context) (*workload.Result, error) {
			return w, nil
		},
		Workloads: exp.DirectWorkloads(),
	}
	var buf bytes.Buffer
	if err := exp.RenderFig(context.Background(), &buf, spec.Fig, in); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFigJobsMatchDriver pins every figure the service renders to the
// offline driver at non-default inputs: bounds below the defaults and a
// tenant count. The phase sweep runs once, on a one-PRC fabric (each run
// takes ~40 s under -race), and first, on a cold cache: it must build
// exactly its phased workloads, never the job's own H.264 workload. Figs.
// 1 and calibration read no workload, so the two run next and must build
// nothing either.
func TestFigJobsMatchDriver(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	specs := []api.JobSpec{{Type: api.JobFig, Fig: "phase", Workload: testWorkload, MaxPRC: 1, MaxCG: 1}}
	for _, name := range []string{"1", "calibration"} {
		specs = append(specs, api.JobSpec{Type: api.JobFig, Fig: name, Workload: testWorkload})
	}
	for _, name := range exp.FigNames {
		if name == "phase" || name == "1" || name == "calibration" {
			continue
		}
		spec := api.JobSpec{Type: api.JobFig, Fig: name, Workload: testWorkload, MaxPRC: 2, MaxCG: 1}
		if name == "tenants" {
			spec.Tenants = 2
		}
		specs = append(specs, spec)
	}
	if len(specs) != len(exp.FigNames) {
		t.Fatalf("%d jobs for %d figures", len(specs), len(exp.FigNames))
	}

	for i, spec := range specs {
		st, err := c.Run(ctx, spec, 5*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != api.StateDone {
			t.Fatalf("fig %s (%d/%d): %s (%s)", spec.Fig, spec.MaxPRC, spec.MaxCG, st.State, st.Error)
		}
		if i < 3 {
			if got := s.metrics.Counter("mrts_workload_cache_misses_total").Value(); got != 5 {
				t.Errorf("after fig %s the cache built %d workloads, want phase's 5", spec.Fig, got)
			}
		}
		if want := directFig(t, spec); st.Result.Text != want {
			t.Errorf("fig %s (%d/%d): service differs from the driver:\n--- service ---\n%s--- driver ---\n%s",
				spec.Fig, spec.MaxPRC, spec.MaxCG, st.Result.Text, want)
		}
	}
}
