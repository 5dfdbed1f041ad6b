package exp

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"strings"

	"mrts/internal/arch"
	"mrts/internal/workload"
)

// Figure defaults: the sweep bounds a zero FigInput.MaxPRC/MaxCG means,
// which are also the CLIs' flag defaults.
const (
	DefaultMaxPRC = 4
	DefaultMaxCG  = 3
)

// MaxTenants is the largest tenant count of the tenant sweep and the K a
// zero FigInput.Tenants means. The run is deterministic, but each tenant
// is a full workload build plus two hypervisor runs per row, so the sweep
// is capped where the paper-style fabric (4/3) stops subdividing
// meaningfully.
const MaxTenants = 8

// FigAll is what the figure name "all" renders, in order, one blank line
// apart.
var FigAll = []string{"8", "9", "10", "overhead", "shared"}

// FigInput is everything a figure run takes. Zero fields mean the
// defaults RenderFig documents, so every front end renders the same bytes
// for the same inputs.
type FigInput struct {
	// Base is the workload the figures run on: tenant 0 of the tenant
	// sweep, and the seed of the phase sweep's phased workloads.
	Base          workload.Options
	MaxPRC, MaxCG int
	FaultSeed     uint64
	Tenants       int
	Mix           string
	// Chart renders Figs. 1, 2, 8 and 10 as ASCII charts instead of
	// tables.
	Chart bool

	// Eval evaluates every point of the figures that run on Base; the
	// fabric-combination sweeps call it with plain (fault-free,
	// unreserved) points.
	Eval PointEvaluator
	// Workload returns Base built. Only the figures that need the built
	// workload call it, so a Fig. 1, phase or calibration run never
	// builds it.
	Workload func(ctx context.Context) (*workload.Result, error)
	// Workloads builds the tenant sweep's and the phase sweep's workloads.
	Workloads WorkloadProvider
}

// renderer is what every figure result implements.
type renderer interface{ Render(io.Writer) }

// mixSeries is the "mix" figure: one equal-area frontier per budget.
type mixSeries []MixResult

func (m mixSeries) Render(w io.Writer) {
	for _, r := range m {
		r.Render(w)
		fmt.Fprintln(w)
	}
}

func result[T renderer](r T, err error) (renderer, error) { return r, err }

// RenderFig runs the named figure (one of FigNames, or "all" for FigAll)
// and renders it to out. It is the one mapping from figure names to
// harness entry points, and it owns their defaults:
//
//   - 1 samples 200..6000 executions in steps of 200, 2 runs on Base
//     built, and calibration takes no input;
//   - zero MaxPRC/MaxCG mean DefaultMaxPRC/DefaultMaxCG;
//   - 8, 9, mix and shared sweep the full bounds, 10 caps the PRCs at 3,
//     overhead runs on 2/2 and phase on the bounds capped at 2/2;
//   - faults runs on FaultsConfig under FaultSeed (zero means 1);
//   - tenants sweeps K = 1..Tenants (zero means MaxTenants) under Mix
//     (empty means "uniform");
//   - phase uses Base's seed (zero means 1).
func RenderFig(ctx context.Context, out io.Writer, name string, in FigInput) error {
	if name == "all" {
		for i, n := range FigAll {
			if i > 0 {
				fmt.Fprintln(out)
			}
			if err := RenderFig(ctx, out, n, in); err != nil {
				return err
			}
		}
		return nil
	}
	maxPRC := cmp.Or(in.MaxPRC, DefaultMaxPRC)
	maxCG := cmp.Or(in.MaxCG, DefaultMaxCG)
	eval := in.Eval.Plain()
	var r renderer
	var err error
	switch name {
	case "1":
		r = Fig1(6000, 200)
	case "2":
		var w *workload.Result
		if w, err = in.Workload(ctx); err == nil {
			r = Fig2(w)
		}
	case "calibration":
		return Calibration(out)
	case "8":
		r, err = result(Fig8(ctx, eval, maxPRC, maxCG))
	case "9":
		r, err = result(Fig9(ctx, eval, maxPRC, maxCG))
	case "10":
		r, err = result(Fig10(ctx, eval, min(maxPRC, 3), maxCG))
	case "mix":
		var m mixSeries
		for _, total := range []int{3, 5, 7} {
			var mr MixResult
			if mr, err = MixFrontier(ctx, eval, total); err != nil {
				break
			}
			m = append(m, mr)
		}
		r = m
	case "shared":
		r, err = result(SharedEval(ctx, in.Eval, arch.Config{NPRC: maxPRC, NCG: maxCG}))
	case "overhead":
		var w *workload.Result
		if w, err = in.Workload(ctx); err == nil {
			r, err = result(OverheadEval(ctx, in.Eval, w.App, arch.Config{NPRC: 2, NCG: 2}))
		}
	case "faults":
		r, err = result(Faults(ctx, in.Eval, FaultsConfig, cmp.Or(in.FaultSeed, 1)))
	case "tenants":
		r, err = result(Tenants(ctx, in.Workloads, in.Base, arch.Config{NPRC: maxPRC, NCG: maxCG},
			cmp.Or(in.Tenants, MaxTenants), cmp.Or(in.Mix, "uniform")))
	case "phase":
		r, err = result(Phase(ctx, in.Workloads, arch.Config{NPRC: min(maxPRC, 2), NCG: min(maxCG, 2)},
			cmp.Or(in.Base.Seed, 1)))
	default:
		return fmt.Errorf("exp: unknown figure %q (valid: %s, all)", name, strings.Join(FigNames, ", "))
	}
	if err != nil {
		return err
	}
	if c, ok := r.(interface{ RenderChart(io.Writer) }); ok && in.Chart {
		c.RenderChart(out)
	} else {
		r.Render(out)
	}
	return nil
}
