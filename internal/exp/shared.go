package exp

import (
	"context"
	"io"
	"math"

	"mrts/internal/arch"
	"mrts/internal/workload"
)

// SharedRow is one fabric-sharing level of the multi-task experiment: a
// competing task permanently occupies part of the fabric, and mRTS adapts
// its selections to what is left.
type SharedRow struct {
	// ReservedPRC/ReservedCG is the fabric the competing task holds.
	ReservedPRC, ReservedCG int
	// Effective is the budget left for the application.
	Effective arch.Config
	// MRTSCycles is mRTS running on the full machine with the
	// reservation applied at run time — no recompilation.
	MRTSCycles arch.Cycles
	// OracleCycles is the offline-optimal selection *recompiled* for the
	// effective budget: the best a static scheme could do if it knew the
	// sharing level in advance.
	OracleCycles arch.Cycles
	// Speedup is mRTS versus RISC mode.
	Speedup float64
	// Retention is OracleCycles / MRTSCycles: how mRTS's purely
	// run-time adaptation compares with the recompiled oracle (1.0
	// matches it; above 1.0 the run-time system is faster than even a
	// statically recompiled selection, thanks to per-block
	// time-multiplexing and ECU steering).
	Retention float64
}

// SharedResult is the full sharing sweep.
type SharedResult struct {
	Full arch.Config
	Rows []SharedRow
	// MinRetention is the worst-case share of the recompiled oracle's
	// performance that run-time adaptation retains.
	MinRetention float64
}

// Shared runs the fabric-sharing sweep on w, simulating every point.
func Shared(ctx context.Context, w *workload.Result, full arch.Config) (SharedResult, error) {
	return SharedEval(ctx, DirectPointEvaluator(w), full)
}

// SharedEval runs the multi-task fabric-sharing experiment (paper Section
// 1 motivates run-time selection with fabric "shared among various
// tasks") on eval: for every reservation level, mRTS adapts at run time on
// the full machine while the yardstick is an offline-optimal selection
// recompiled for the shrunken budget. A run-time system is valuable
// exactly when it tracks that oracle without recompilation.
func SharedEval(ctx context.Context, eval PointEvaluator, full arch.Config) (SharedResult, error) {
	res := SharedResult{Full: full, MinRetention: math.Inf(1)}
	risc, err := eval(ctx, Point{Policy: PolicyRISC})
	if err != nil {
		return res, err
	}

	var levels []arch.Config
	for prc := 0; prc < full.NPRC; prc++ {
		for cg := 0; cg < full.NCG; cg++ {
			levels = append(levels, arch.Config{NPRC: prc, NCG: cg})
		}
	}

	rows, err := ParMap(ctx, len(levels), func(ctx context.Context, i int) (SharedRow, error) {
		lv := levels[i]
		row := SharedRow{
			ReservedPRC: lv.NPRC,
			ReservedCG:  lv.NCG,
			Effective:   arch.Config{NPRC: full.NPRC - lv.NPRC, NCG: full.NCG - lv.NCG},
		}
		rep, err := eval(ctx, Point{Config: full, Policy: PolicyMRTS, Reserve: lv})
		if err != nil {
			return row, err
		}
		row.MRTSCycles = rep.TotalCycles
		row.Speedup = rep.Speedup(risc)

		orep, err := eval(ctx, Point{Config: row.Effective, Policy: PolicyOffline})
		if err != nil {
			return row, err
		}
		row.OracleCycles = orep.TotalCycles
		row.Retention = float64(orep.TotalCycles) / float64(rep.TotalCycles)
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	for _, row := range rows {
		if row.Retention < res.MinRetention {
			res.MinRetention = row.Retention
		}
	}
	return res, nil
}

// Render writes the sharing sweep as a text table.
func (r SharedResult) Render(w io.Writer) {
	fprintf(w, "Fabric sharing: mRTS adapting at run time vs. offline-optimal recompiled per budget\n")
	fprintf(w, "full machine: %d PRC / %d CG-EDPE\n\n", r.Full.NPRC, r.Full.NCG)
	fprintf(w, "%-10s %-10s %12s %12s %9s %10s\n",
		"reserved", "effective", "mRTS (M)", "oracle (M)", "speedup", "retention")
	for _, row := range r.Rows {
		fprintf(w, "%d/%-8d %d/%-8d %12.2f %12.2f %8.2fx %9.2f%%\n",
			row.ReservedPRC, row.ReservedCG,
			row.Effective.NPRC, row.Effective.NCG,
			row.MRTSCycles.MCycles(), row.OracleCycles.MCycles(),
			row.Speedup, 100*row.Retention)
	}
	fprintf(w, "\nworst-case retention of the recompiled oracle's performance: %.1f%%\n", 100*r.MinRetention)
}
