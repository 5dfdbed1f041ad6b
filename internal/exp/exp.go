// Package exp is the experiment harness: one entry point per table/figure
// of the paper's evaluation (Section 5). Each function runs the complete
// pipeline — workload, policies, simulator — and returns the same rows or
// series the paper reports, plus a text renderer used by the command-line
// tools and the benchmark harness.
//
// EXPERIMENTS.md records the paper-vs-measured comparison for every entry
// point here.
package exp

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mrts/internal/arch"
	"mrts/internal/baseline"
	"mrts/internal/core"
	"mrts/internal/ise"
	"mrts/internal/trace"
)

// Policy identifies a runtime system in experiment rows.
type Policy string

// Policies of the Fig. 8 comparison, in the paper's bar order.
const (
	PolicyRISPP    Policy = "RISPP-like"
	PolicyOffline  Policy = "Offline-optimal"
	PolicyMorpheus Policy = "Morpheus/4S-like"
	PolicyMRTS     Policy = "mRTS"
	PolicyOptimal  Policy = "Online-optimal"
	PolicyRISC     Policy = "RISC-mode"
)

// shortNames maps the command-line spellings to policies. It is the single
// policy-name table shared by the CLIs and the service API.
var shortNames = map[string]Policy{
	"mrts":     PolicyMRTS,
	"rispp":    PolicyRISPP,
	"morpheus": PolicyMorpheus,
	"offline":  PolicyOffline,
	"optimal":  PolicyOptimal,
	"risc":     PolicyRISC,
}

// PolicyNames returns the valid short policy names, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(shortNames))
	for n := range shortNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParsePolicy resolves a short command-line name ("mrts", "rispp", ...) or a
// canonical Policy string to a Policy. The error lists the valid names.
func ParsePolicy(name string) (Policy, error) {
	if p, ok := shortNames[strings.ToLower(name)]; ok {
		return p, nil
	}
	for _, p := range []Policy{PolicyRISPP, PolicyOffline, PolicyMorpheus, PolicyMRTS, PolicyOptimal, PolicyRISC} {
		if name == string(p) {
			return p, nil
		}
	}
	return "", fmt.Errorf("exp: unknown policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}

// NewPolicy builds a runtime system by name for the given fabric budget.
func NewPolicy(p Policy, cfg arch.Config, app *ise.Application, tr *trace.Trace) (core.RuntimeSystem, error) {
	switch p {
	case PolicyMRTS:
		return core.New(cfg, core.Options{ChargeOverhead: true})
	case PolicyRISPP:
		return baseline.NewRISPPLike(cfg)
	case PolicyMorpheus:
		return baseline.NewMorpheus4S(cfg, app, tr)
	case PolicyOffline:
		return baseline.NewOfflineOptimal(cfg, app, tr)
	case PolicyOptimal:
		return baseline.NewOnlineOptimal(cfg)
	case PolicyRISC:
		return core.NewRISCOnly(), nil
	default:
		return nil, fmt.Errorf("exp: unknown policy %q", p)
	}
}

// FigNames are the figure/sweep names the CLIs and the service accept, in
// presentation order. It is the single figure-name table shared by
// mrts-sweep, mrts-report, mrts-submit and the service API.
var FigNames = []string{"1", "2", "8", "9", "10", "overhead", "shared", "mix", "faults", "tenants", "phase", "calibration"}

// ValidFig reports whether name is a known figure name.
func ValidFig(name string) bool {
	for _, f := range FigNames {
		if name == f {
			return true
		}
	}
	return false
}

// Combos enumerates fabric combinations the way Fig. 8 orders its x-axis:
// the PRC count is the outer digit, the CG-EDPE count the inner one.
func Combos(maxPRC, maxCG int, includeRISC bool) []arch.Config {
	var out []arch.Config
	for p := 0; p <= maxPRC; p++ {
		for c := 0; c <= maxCG; c++ {
			if p == 0 && c == 0 && !includeRISC {
				continue
			}
			out = append(out, arch.Config{NPRC: p, NCG: c})
		}
	}
	return out
}

func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
