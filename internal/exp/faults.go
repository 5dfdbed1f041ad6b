package exp

import (
	"context"
	"io"

	"mrts/internal/arch"
	"mrts/internal/ecu"
	"mrts/internal/fault"
)

// FaultsFractions are the fabric-loss fractions of the degradation sweep.
var FaultsFractions = []float64{0, 0.25, 0.5, 0.75, 1.0}

// FaultsConfig is the fabric budget the degradation sweep runs on: large
// enough that every loss fraction maps to a distinct container count.
var FaultsConfig = arch.Config{NPRC: 4, NCG: 4}

// FaultsRow is one loss fraction of the degradation sweep.
type FaultsRow struct {
	// Fraction is the fraction of each fabric failed permanently.
	Fraction float64
	// FailPRC / FailCG are the container counts that fraction maps to.
	FailPRC int
	FailCG  int
	// Cycles holds the execution time per policy.
	Cycles map[Policy]arch.Cycles
	// SpeedupRISC is each policy's speedup over the RISC reference.
	SpeedupRISC map[Policy]float64
	// AdvantageStatic is mRTS's speedup over the best static baseline
	// (offline-optimal or Morpheus/4S) at this loss level.
	AdvantageStatic float64
	// Reselections / Degradations / RISCShare describe mRTS's reaction:
	// selections re-run on fault events, ISEs dropped for lack of
	// surviving fabric, and the fraction of executions that fell back to
	// RISC mode.
	Reselections int64
	Degradations int64
	RISCShare    float64
}

// FaultsResult is the full degradation sweep.
type FaultsResult struct {
	Config     arch.Config
	Seed       uint64
	RISCCycles arch.Cycles
	// Horizon is the window the failures were spread over.
	Horizon arch.Cycles
	Rows    []FaultsRow
}

// Faults measures graceful degradation under permanent fabric failures:
// for each loss fraction, that share of PRCs and CG-EDPEs fails at seeded
// times spread over the first tenth of the RISC-mode execution time, and
// the four policies of the Fig. 8 comparison run to completion on what
// survives. Failure times are drawn from per-category streams, so each
// row's failures are a superset of the previous row's — degradation curves
// are therefore directly comparable across rows.
//
// Expected shape: every policy degrades monotonically; mRTS never aborts
// and converges to RISC-mode at 100% loss; at partial loss mRTS keeps an
// advantage over the static baselines because it re-selects over the
// surviving fabric while their compile-time selections silently lose ISEs.
func Faults(ctx context.Context, eval PointEvaluator, cfg arch.Config, seed uint64) (FaultsResult, error) {
	if cfg == (arch.Config{}) {
		cfg = FaultsConfig
	}
	res := FaultsResult{Config: cfg, Seed: seed}
	risc, err := eval(ctx, Point{Policy: PolicyRISC, Seed: seed})
	if err != nil {
		return res, err
	}
	res.RISCCycles = risc.TotalCycles
	res.Horizon = risc.TotalCycles / 10

	rows, err := ParMap(ctx, len(FaultsFractions), func(ctx context.Context, i int) (FaultsRow, error) {
		f := FaultsFractions[i]
		row := FaultsRow{
			Fraction:    f,
			FailPRC:     int(f*float64(cfg.NPRC) + 0.5),
			FailCG:      int(f*float64(cfg.NCG) + 0.5),
			Cycles:      map[Policy]arch.Cycles{},
			SpeedupRISC: map[Policy]float64{},
		}
		fo := fault.Options{FailPRC: row.FailPRC, FailCG: row.FailCG, Horizon: res.Horizon}
		for _, p := range Fig8Policies {
			rep, err := eval(ctx, Point{Config: cfg, Policy: p, Seed: seed, Faults: fo})
			if err != nil {
				return row, err
			}
			row.Cycles[p] = rep.TotalCycles
			row.SpeedupRISC[p] = float64(res.RISCCycles) / float64(rep.TotalCycles)
			if p == PolicyMRTS {
				row.Reselections = rep.Fault.Reselections
				row.Degradations = rep.Fault.Degradations
				row.RISCShare = rep.ModeShare(ecu.RISC)
			}
		}
		bestStatic := row.Cycles[PolicyOffline]
		if c := row.Cycles[PolicyMorpheus]; c < bestStatic {
			bestStatic = c
		}
		row.AdvantageStatic = float64(bestStatic) / float64(row.Cycles[PolicyMRTS])
		return row, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// Render writes the degradation sweep as a text table.
func (r FaultsResult) Render(w io.Writer) {
	fprintf(w, "Graceful degradation under permanent fabric failures (config %s, seed %d)\n", r.Config, r.Seed)
	fprintf(w, "RISC-mode reference: %.2f Mcycles; failures land in the first %.2f Mcycles\n\n",
		r.RISCCycles.MCycles(), r.Horizon.MCycles())
	fprintf(w, "%-6s %-7s %12s %12s %12s %12s | %8s %8s %6s %6s %6s\n",
		"lost", "dead", "RISPP-like", "Offline-opt", "Morph+4S", "mRTS",
		"vs RISC", "vs stat", "resel", "degr", "risc%")
	for _, row := range r.Rows {
		fprintf(w, "%4.0f%%  %d+%-5d %12.2f %12.2f %12.2f %12.2f | %8.2f %8.2f %6d %6d %5.1f%%\n",
			row.Fraction*100, row.FailPRC, row.FailCG,
			row.Cycles[PolicyRISPP].MCycles(),
			row.Cycles[PolicyOffline].MCycles(),
			row.Cycles[PolicyMorpheus].MCycles(),
			row.Cycles[PolicyMRTS].MCycles(),
			row.SpeedupRISC[PolicyMRTS],
			row.AdvantageStatic,
			row.Reselections, row.Degradations, row.RISCShare*100)
	}
	fprintf(w, "\n(dead = failed PRCs + failed CG-EDPEs; vs stat = mRTS speedup over the best static baseline;\n")
	fprintf(w, " resel/degr = mRTS fault re-selections and ISEs dropped for lack of surviving fabric.)\n")
}
