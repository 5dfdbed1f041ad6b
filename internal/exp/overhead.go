package exp

import (
	"context"
	"fmt"
	"io"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/workload"
)

// OverheadResult quantifies the run-time system's own cost (paper
// Section 5.4).
type OverheadResult struct {
	Config arch.Config
	// Selections is the number of trigger instructions processed.
	Selections int64
	// Evaluations is the number of profit-function evaluations.
	Evaluations int64
	// CyclesPerSelection is the total selection cost per trigger
	// instruction (the paper reports <3000 cycles on average).
	CyclesPerSelection float64
	// CyclesPerKernel divides the cost by the number of kernels selected.
	CyclesPerKernel float64
	// VisibleShare is the critical-path overhead as a fraction of the
	// total execution time (the paper reports ~1.9% of an average
	// functional block, hidden after the first selection).
	VisibleShare float64
	// HiddenShare is the fraction of the selection cost that overlapped
	// with reconfiguration (invisible on the critical path).
	HiddenShare float64
	// AvgBlockCycles is the average functional-block iteration time.
	AvgBlockCycles float64
	// VisiblePerBlockShare is the visible overhead per selection as a
	// fraction of the average functional-block iteration time.
	VisiblePerBlockShare float64
}

// Overhead measures the mRTS implementation overhead on w, simulating
// the point.
func Overhead(w *workload.Result, cfg arch.Config) (OverheadResult, error) {
	return OverheadEval(context.TODO(), DirectPointEvaluator(w), w.App, cfg)
}

// OverheadEval measures the mRTS implementation overhead (paper Section
// 5.4) of app on the given fabric combination, evaluating the point on
// eval.
func OverheadEval(ctx context.Context, eval PointEvaluator, app *ise.Application, cfg arch.Config) (OverheadResult, error) {
	res := OverheadResult{Config: cfg}
	rep, err := eval(ctx, Point{Config: cfg, Policy: PolicyMRTS})
	if err != nil {
		return res, err
	}
	st := rep.Selection
	res.Selections = st.Selections
	res.Evaluations = st.Evaluations
	if st.Selections > 0 {
		res.CyclesPerSelection = float64(st.OverheadTotal) / float64(st.Selections)
	}
	var kernels int64
	for _, b := range app.Blocks {
		kernels += int64(len(b.Kernels))
	}
	if kernels > 0 && rep.Iterations > 0 {
		perIter := kernels / int64(len(app.Blocks))
		if perIter > 0 {
			res.CyclesPerKernel = res.CyclesPerSelection / float64(perIter)
		}
	}
	if rep.TotalCycles > 0 {
		res.VisibleShare = float64(rep.OverheadCycles) / float64(rep.TotalCycles)
	}
	if st.OverheadTotal > 0 {
		res.HiddenShare = float64(st.OverheadTotal-st.OverheadVisible) / float64(st.OverheadTotal)
	}
	if rep.Iterations > 0 {
		res.AvgBlockCycles = float64(rep.TotalCycles) / float64(rep.Iterations)
		if res.AvgBlockCycles > 0 && st.Selections > 0 {
			visPerSel := float64(st.OverheadVisible) / float64(st.Selections)
			res.VisiblePerBlockShare = visPerSel / res.AvgBlockCycles
		}
	}
	return res, nil
}

// Render writes the overhead analysis.
func (r OverheadResult) Render(w io.Writer) {
	fprintf(w, "Section 5.4: mRTS implementation overhead (%d PRC / %d CG)\n", r.Config.NPRC, r.Config.NCG)
	fprintf(w, "selections (trigger instructions):     %d\n", r.Selections)
	fprintf(w, "profit-function evaluations:           %d\n", r.Evaluations)
	fprintf(w, "cycles per selection:                  %s (paper: <3000)\n", fmtF(r.CyclesPerSelection))
	fprintf(w, "cycles per kernel selected:            %s\n", fmtF(r.CyclesPerKernel))
	fprintf(w, "visible overhead / total time:         %.2f%%\n", 100*r.VisibleShare)
	fprintf(w, "visible overhead / avg block:          %.2f%% (paper: ~1.9%%)\n", 100*r.VisiblePerBlockShare)
	fprintf(w, "hidden behind reconfiguration:         %.1f%% of selection cost\n", 100*r.HiddenShare)
}

func fmtF(v float64) string { return fmt.Sprintf("%.0f", v) }
