package exp

import (
	"context"
	"io"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// PhasePredictors are the MPU predictor kinds the phase sweep compares,
// in presentation order. Back-propagation is the paper's pinned baseline;
// the other two are the phase-aware alternatives it is measured against.
var PhasePredictors = []mpu.Kind{mpu.KindBackProp, mpu.KindPhase, mpu.KindDecay}

// PhaseDivergences are the control-flow divergence levels of the sweep
// (effective values; 0 is the explicitly static workload).
var PhaseDivergences = []float64{0, 0.25, 0.5, 0.75, 1.0}

// PhaseConfig is the default fabric budget of the phase sweep.
var PhaseConfig = arch.Config{NPRC: 2, NCG: 2}

// PhaseRow is one divergence level: every predictor on the same workload.
type PhaseRow struct {
	// Divergence is the effective control-flow divergence of the
	// workload this row ran on.
	Divergence float64
	// RISCCycles is the row's RISC-mode reference.
	RISCCycles arch.Cycles
	// Cycles / SpeedupRISC hold execution time and speedup per predictor
	// kind.
	Cycles      map[mpu.Kind]arch.Cycles
	SpeedupRISC map[mpu.Kind]float64
	// MeanAbsErr is each predictor's mean absolute execution-count
	// forecast error over the scored observations of the run, and
	// Samples the (predictor-independent) number of scored observations.
	MeanAbsErr map[mpu.Kind]float64
	Samples    int64
}

// PhaseResult is the full phase-aware prediction sweep.
type PhaseResult struct {
	Config   arch.Config
	Seed     uint64
	Workload workload.PhasedOptions
	Rows     []PhaseRow
}

// phaseOptions builds the workload options for one divergence level,
// spelling the explicit zero with the negative sentinel.
func phaseOptions(seed uint64, d float64) workload.Options {
	p := workload.PhasedOptions{Divergence: d}
	if d == 0 {
		p.Divergence = -1
	}
	return workload.Options{Seed: seed, Phased: &p}
}

// Phase sweeps MPU predictor kinds over dynamic control-flow workloads of
// increasing divergence (workload.PhasedOptions). Each row builds one
// phased workload, takes a RISC-mode reference, then runs mRTS once per
// predictor kind — identical except for the forecaster — and reports both
// the end-to-end speedup and the mean absolute forecast error the run's
// scored observations accumulated (sim.Report.Forecast).
//
// Expected shape: at zero divergence the predictors tie — the workload is
// static and every forecaster converges. At low-to-high divergence back-
// propagation's single moving average chases regime switches while the
// phase-table and decay predictors track them and hold a lower error,
// which is what buys them their speedup edge on branchy workloads. At
// full divergence the data-dependent noise approaches the regime spacing
// and regime matching loses its edge — no predictor beats the global
// average on white noise.
func Phase(ctx context.Context, wp WorkloadProvider, cfg arch.Config, seed uint64) (PhaseResult, error) {
	if cfg == (arch.Config{}) {
		cfg = PhaseConfig
	}
	res := PhaseResult{Config: cfg, Seed: seed}
	res.Workload = workload.PhasedOptions{}.Canonical()

	rows, err := ParMap(ctx, len(PhaseDivergences), func(ctx context.Context, i int) (PhaseRow, error) {
		d := PhaseDivergences[i]
		row := PhaseRow{
			Divergence:  d,
			Cycles:      map[mpu.Kind]arch.Cycles{},
			SpeedupRISC: map[mpu.Kind]float64{},
			MeanAbsErr:  map[mpu.Kind]float64{},
		}
		w, err := wp(ctx, phaseOptions(seed, d))
		if err != nil {
			return row, err
		}
		risc, err := RunPoint(ctx, w, arch.Config{}, PolicyRISC)
		if err != nil {
			return row, err
		}
		row.RISCCycles = risc.TotalCycles
		for _, k := range PhasePredictors {
			rep, err := RunPointPredictor(ctx, w, cfg, k, nil)
			if err != nil {
				return row, err
			}
			row.Cycles[k] = rep.TotalCycles
			row.SpeedupRISC[k] = float64(row.RISCCycles) / float64(rep.TotalCycles)
			row.MeanAbsErr[k] = rep.Forecast.Total.MeanAbsE()
			row.Samples = rep.Forecast.Total.Samples
		}
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// RunPointPredictor is RunPoint for mRTS with an explicit MPU predictor
// kind, optionally capturing the decision trace. It is the seam mrts-sim's
// -predictor flag and the phase sweep share; with mpu.KindBackProp it is
// behaviourally identical to RunPoint with PolicyMRTS.
func RunPointPredictor(ctx context.Context, w *workload.Result, cfg arch.Config, k mpu.Kind, rec *obs.Recorder) (*sim.Report, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
	}
	rts, err := core.New(cfg, core.Options{
		ChargeOverhead: true,
		MPU:            []mpu.Option{mpu.WithPredictor(k)},
		Name:           "mRTS/" + string(k),
	})
	if err != nil {
		return nil, err
	}
	attachMemo(ctx, rts)
	return sim.RunOpts(w.App, w.Trace, rts, sim.Options{Observer: rec})
}

// Render writes the phase sweep as a text table.
func (r PhaseResult) Render(w io.Writer) {
	fprintf(w, "Phase-aware prediction on dynamic control-flow workloads (config %s, seed %d)\n", r.Config, r.Seed)
	fprintf(w, "Workload: %d blocks x %d kernels, %d rounds, %d regimes; divergence scales regime\n",
		r.Workload.Blocks, r.Workload.Kernels, r.Workload.Rounds, r.Workload.Phases)
	fprintf(w, "switches, count noise and mid-iteration shifts. err = mean |forecast - observed| executions.\n\n")
	fprintf(w, "%-6s %-8s", "diverg", "samples")
	for _, k := range PhasePredictors {
		fprintf(w, " %9s %8s", k, "err")
	}
	fprintf(w, "\n")
	for _, row := range r.Rows {
		fprintf(w, "%5.2f  %-8d", row.Divergence, row.Samples)
		for _, k := range PhasePredictors {
			fprintf(w, " %8.2fx %8.1f", row.SpeedupRISC[k], row.MeanAbsErr[k])
		}
		fprintf(w, "\n")
	}
	fprintf(w, "\n(speedups vs the row's RISC-mode reference; every mRTS column differs only in the MPU\n")
	fprintf(w, " forecaster — back-propagation is the paper's baseline.)\n")
}
