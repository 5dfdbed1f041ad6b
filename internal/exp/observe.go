package exp

import (
	"context"

	"mrts/internal/arch"
	"mrts/internal/fault"
	"mrts/internal/obs"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// RunPointObserved is RunPoint with a decision-trace recorder attached and
// an optional fault scenario: the one point-runner body behind RunPoint,
// RunPointFaults, the CLIs' -trace flag and the service's trace-capturing
// jobs. A nil recorder (or zero fault options) degrades to the plain path;
// either way the report is byte-identical to an unobserved run — the
// recorder is strictly a tap. The context's selection memo, if any, is
// attached too: a memo hit replays the identical selection and its claim
// events, so neither the report nor the trace can tell.
func RunPointObserved(ctx context.Context, w *workload.Result, cfg arch.Config, p Policy, seed uint64, fo fault.Options, rec *obs.Recorder) (*sim.Report, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
	}
	rts, err := NewPolicy(p, cfg, w.App, w.Trace)
	if err != nil {
		return nil, err
	}
	attachMemo(ctx, rts)
	var sched *fault.Schedule
	if !fo.IsZero() {
		if sched, err = fault.NewSchedule(seed, fo); err != nil {
			return nil, err
		}
	}
	return sim.RunOpts(w.App, w.Trace, rts, sim.Options{Faults: sched, Observer: rec})
}
