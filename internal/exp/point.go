package exp

import (
	"context"
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/fault"
	"mrts/internal/obs"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// Point is one simulation of the figure harnesses on their base workload:
// a fabric budget, a policy, the fault scenario it runs under and the
// fabric a competing task holds for the whole run. Zero Faults is the
// benign scenario and zero Reserve the unshared fabric, so the zero value
// of both is the plain Fig. 8 point. A simulation is a deterministic
// function of its Point (for a fixed workload), which is what lets a
// report memo key on it.
type Point struct {
	Config arch.Config
	Policy Policy
	// Seed draws the fault schedule; it is ignored when Faults is benign.
	Seed   uint64
	Faults fault.Options
	// Reserve is the fabric reserved by competing tasks (paper Section 1:
	// the reconfigurable fabric is shared among various tasks), applied
	// after the policy's reset, before the first trigger instruction.
	Reserve arch.Config
}

// Label is the point's decision-trace run label: policy/PRCsxCGs, plus
// /failP+C under a fault scenario and /rsvP+C under a reservation.
func (pt Point) Label() string {
	label := fmt.Sprintf("%s/%dx%d", pt.Policy, pt.Config.NPRC, pt.Config.NCG)
	if pt.Seed != 0 || pt.Faults != (fault.Options{}) {
		label += fmt.Sprintf("/fail%d+%d", pt.Faults.FailPRC, pt.Faults.FailCG)
	}
	if pt.Reserve != (arch.Config{}) {
		label += fmt.Sprintf("/rsv%d+%d", pt.Reserve.NPRC, pt.Reserve.NCG)
	}
	return label
}

// PointEvaluator evaluates one Point. The figure harnesses on the base
// workload are written against this single job-execution path, so the
// same aggregation code runs whether points are simulated directly
// (DirectPointEvaluator), served from a report memo (batch.Engine) by
// mrts-sweep, mrts-report and the mrts-serve daemon, or traced.
type PointEvaluator func(ctx context.Context, pt Point) (*sim.Report, error)

// DirectPointEvaluator returns a PointEvaluator that simulates every
// point on the given workload, with no caching.
func DirectPointEvaluator(w *workload.Result) PointEvaluator {
	return func(ctx context.Context, pt Point) (*sim.Report, error) {
		return RunPointObserved(ctx, w, pt, nil)
	}
}

// Plain restricts e to fault-free, unreserved points: the Evaluator the
// fabric-combination sweeps (Figs. 8-10, mix) take.
func (e PointEvaluator) Plain() Evaluator {
	return func(ctx context.Context, cfg arch.Config, p Policy) (*sim.Report, error) {
		return e(ctx, Point{Config: cfg, Policy: p})
	}
}

// Evaluator evaluates one (fabric combination, policy) point of a
// fabric-combination sweep: a PointEvaluator restricted by Plain.
type Evaluator func(ctx context.Context, cfg arch.Config, p Policy) (*sim.Report, error)

// DirectEvaluator returns an Evaluator that simulates every point on the
// given workload, with no caching.
func DirectEvaluator(w *workload.Result) Evaluator { return DirectPointEvaluator(w).Plain() }

// RunPoint builds and runs one policy on the workload, fault-free and
// unreserved.
func RunPoint(ctx context.Context, w *workload.Result, cfg arch.Config, p Policy) (*sim.Report, error) {
	return RunPointObserved(ctx, w, Point{Config: cfg, Policy: p}, nil)
}

// RunPointFaults is RunPoint under a fault scenario: the schedule is drawn
// from (seed, fo) and interleaved with the trace. Zero options run the
// plain fault-free path.
func RunPointFaults(ctx context.Context, w *workload.Result, cfg arch.Config, p Policy, seed uint64, fo fault.Options) (*sim.Report, error) {
	return RunPointObserved(ctx, w, Point{Config: cfg, Policy: p, Seed: seed, Faults: fo}, nil)
}

// RunPointObserved simulates one point with an optional decision-trace
// recorder attached: the one point-runner body behind every evaluator,
// the CLIs' -trace flags and the service's trace-capturing jobs. A nil
// recorder degrades to the plain path; either way the report is
// byte-identical to an unobserved run — the recorder is strictly a tap.
// The context is checked before the (non-interruptible) simulation
// starts, so cancelled sweeps stop at point granularity.
func RunPointObserved(ctx context.Context, w *workload.Result, pt Point, rec *obs.Recorder) (*sim.Report, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
	}
	rts, err := NewPolicy(pt.Policy, pt.Config, w.App, w.Trace)
	if err != nil {
		return nil, err
	}
	opts := sim.Options{ReservePRC: pt.Reserve.NPRC, ReserveCG: pt.Reserve.NCG, Observer: rec}
	if !pt.Faults.IsZero() {
		if opts.Faults, err = fault.NewSchedule(pt.Seed, pt.Faults); err != nil {
			return nil, err
		}
	}
	return sim.RunOpts(w.App, w.Trace, rts, opts)
}
