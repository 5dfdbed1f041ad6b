// Package profit implements the mRTS profit function (paper Eqs. 1-4):
// the expected number of executions of each intermediate ISE (NoE, Eq. 3),
// the performance improvement each of them contributes (per_imp, Eq. 2),
// the total expected profit of an ISE (Eq. 4) and the Performance
// Improvement Factor (pif, Eq. 1) used by the motivational case study.
//
// The package also provides the RISPP-style cost model used by the
// RISPP-like baseline: a profit function tuned to the millisecond-range
// reconfiguration times of the fine-grained fabric, which therefore
// mis-costs coarse-grained data paths (paper Section 1).
package profit

import (
	"mrts/internal/arch"
	"mrts/internal/ise"
)

// Params carries the per-kernel forecast of a trigger instruction that the
// profit function consumes: the expected number of executions e, the time
// until the first execution tf, and the average time between two
// consecutive executions tb.
type Params struct {
	E  int64
	TF arch.Cycles
	TB arch.Cycles
}

// ParamsFromTrigger extracts the profit inputs from a trigger.
func ParamsFromTrigger(t ise.Trigger) Params {
	return Params{E: t.E, TF: t.TF, TB: t.TB}
}

// Model selects the cost model used to estimate reconfiguration times.
type Model int

const (
	// Multigrained is the mRTS profit function: each data path is costed
	// with the reconfiguration latency of its own fabric.
	Multigrained Model = iota
	// FGTuned is the RISPP-like cost model: every data path is costed as
	// if it reconfigured on the fine-grained fabric. This reproduces the
	// baseline's inefficiency on coarse-grained data paths.
	FGTuned
	// PortBlind is the Multigrained model without configuration-port
	// awareness: reconfiguration estimates assume an idle port, as the
	// paper's original profit function does. An ablation model
	// (BenchmarkAblationPortBlindProfit) quantifying what the port-aware
	// estimate contributes.
	PortBlind
)

// PIF computes the Performance Improvement Factor of an ISE (Eq. 1):
//
//	pif = sw_time*executions / (reconfiguration_latency + hw_time*executions)
//
// sw_time is the kernel's RISC-mode latency, hw_time the latency of the
// fully reconfigured ISE, and the reconfiguration latency is the total for
// all data paths from scratch. Used by the Fig. 1 case study.
func PIF(k *ise.Kernel, e *ise.ISE, executions int64) float64 {
	if executions <= 0 {
		return 0
	}
	sw := float64(k.RISCLatency) * float64(executions)
	hw := float64(e.TotalReconfigCycles()) + float64(e.FullLatency())*float64(executions)
	if hw <= 0 {
		return 0
	}
	return sw / hw
}

// ConfiguredMask returns the ISE's configured mask on the fabric: bit i is
// set when e.DataPaths[i] is configured. A nil fabric configures nothing.
// It is the mask AppendRecT and Scratch.Profit take, for callers that hold
// a FabricView rather than per-path state.
func ConfiguredMask(e *ise.ISE, fab ise.FabricView) uint64 {
	var mask uint64
	if fab == nil {
		return 0
	}
	for i, d := range e.DataPaths {
		if fab.IsConfigured(d.ID) {
			mask |= 1 << i
		}
	}
	return mask
}

// PortsOf returns the fabric's configuration-port view, or nil when it
// reports no port backlog.
func PortsOf(fab ise.FabricView) ise.PortView {
	pv, _ := fab.(ise.PortView)
	return pv
}

// AppendRecT appends the effective cumulative reconfiguration times of
// the intermediate ISEs under the given fabric state and cost model to dst
// (usually a reused scratch buffer sliced to length zero): after the call,
// dst[len0+i] is the time until data paths 1..i are available, i = 0..n.
// Data paths whose bit is set in configured (see ConfiguredMask; e.g.
// shared with a previously selected ISE) cost nothing. Each fabric
// reconfigures through its own serial configuration port; with a non-nil
// ports view, new reconfigurations queue behind its backlog.
func AppendRecT(dst []arch.Cycles, e *ise.ISE, configured uint64, ports ise.PortView, m Model) []arch.Cycles {
	dst = append(dst, 0)
	var fgT, cgT arch.Cycles
	if ports != nil && m != PortBlind {
		fgT = ports.PortBacklog(arch.FG)
		cgT = ports.PortBacklog(arch.CG)
	}
	var avail arch.Cycles
	for i, d := range e.DataPaths {
		if configured&(1<<i) == 0 {
			dur := dataPathReconfig(d, m)
			kind := d.Kind
			if m == FGTuned {
				// The RISPP cost model charges everything to the
				// (single) fine-grained configuration port.
				kind = arch.FG
			}
			var ready arch.Cycles
			if kind == arch.FG {
				fgT += dur
				ready = fgT
			} else {
				cgT += dur
				ready = cgT
			}
			if ready > avail {
				avail = ready
			}
		}
		dst = append(dst, avail)
	}
	return dst
}

func dataPathReconfig(d ise.DataPath, m Model) arch.Cycles {
	if m == FGTuned {
		// The RISPP cost model assumes FPGA-class reconfiguration
		// latency for every data path.
		n := d.PRCs + d.CGs
		if n < 1 {
			n = 1
		}
		return arch.FGReconfigCycles * arch.Cycles(n)
	}
	return d.ReconfigCycles()
}

// AppendNoE appends the expected number of executions of each
// intermediate ISE (Eq. 3) to dst, given the cumulative reconfiguration
// times rec that AppendRecT produced for the same ISE: value i-1
// corresponds to intermediate ISE i, for i = 1..n-1. It appends exactly
// NumDataPaths()-1 values (none when the ISE has a single data path).
// The i-th intermediate ISE is executed from the moment it is available
// (but not before tf) until the (i+1)-th becomes available; each execution
// occupies latency(ISE_i) + tb cycles of the schedule.
//
// The values are clamped so that their running sum never exceeds the
// total expected executions p.E after accounting for the RISC-mode
// executions that happen before the first intermediate ISE is ready.
func AppendNoE(dst []float64, e *ise.ISE, k *ise.Kernel, rec []arch.Cycles, p Params) []float64 {
	n := e.NumDataPaths()
	if n <= 1 {
		return dst
	}
	len0 := len(dst)
	for i := 1; i < n; i++ {
		dst = append(dst, 0)
	}
	if p.E <= 0 {
		return dst
	}
	out := dst[len0:]
	// Executions consumed in RISC mode before intermediate ISE 1 exists.
	budget := float64(p.E) - riscModeExecutions(k, rec[1], p)
	if budget < 0 {
		budget = 0
	}
	for i := 1; i < n; i++ {
		start := rec[i]
		if p.TF > start {
			start = p.TF
		}
		window := rec[i+1] - start
		if window <= 0 {
			continue
		}
		per := float64(e.Latency(i)) + float64(p.TB)
		if per <= 0 {
			per = 1
		}
		v := float64(window) / per
		if v > budget {
			v = budget
		}
		out[i-1] = v
		budget -= v
	}
	return dst
}

// riscModeExecutions estimates NoE_RM of Fig. 5: the executions performed
// in RISC mode before the first intermediate ISE is available.
func riscModeExecutions(k *ise.Kernel, firstReady arch.Cycles, p Params) float64 {
	window := firstReady - p.TF
	if window <= 0 {
		return 0
	}
	per := float64(k.RISCLatency) + float64(p.TB)
	if per <= 0 {
		per = 1
	}
	v := float64(window) / per
	if v > float64(p.E) {
		v = float64(p.E)
	}
	return v
}

// Scratch holds reusable buffers for repeated profit evaluations so that
// hot loops (the selector's greedy rounds, branch-and-bound walks) can
// compute profits without per-call allocations. The zero value is ready to
// use; buffers grow to the largest ISE seen and are then reused.
type Scratch struct {
	rec []arch.Cycles
	noe []float64
}

// Profit computes the total expected profit of an ISE (Eq. 4): the sum of
// the performance improvements (cycles saved versus RISC mode, Eq. 2) of
// its intermediate ISEs plus that of the fully reconfigured ISE, whose
// execution count is the forecast total e minus the executions already
// absorbed by RISC mode and the intermediate ISEs. The result does not
// depend on what the scratch buffers held before.
//
// configured marks the already-configured (shared) data paths and ports
// supplies the port backlog (nil: idle ports), as for AppendRecT.
func (s *Scratch) Profit(k *ise.Kernel, e *ise.ISE, configured uint64, ports ise.PortView, p Params, m Model) float64 {
	if p.E <= 0 {
		return 0
	}
	n := e.NumDataPaths()
	s.rec = AppendRecT(s.rec[:0], e, configured, ports, m)
	s.noe = AppendNoE(s.noe[:0], e, k, s.rec, p)
	rec, noe := s.rec, s.noe

	var total, used float64
	for i := 1; i < n; i++ {
		imp := float64(k.RISCLatency) - float64(e.Latency(i))
		if imp < 0 {
			imp = 0
		}
		total += noe[i-1] * imp
		used += noe[i-1]
	}
	used += riscModeExecutions(k, rec[1], p)
	rem := float64(p.E) - used
	if rem < 0 {
		rem = 0
	}
	impFull := float64(k.RISCLatency) - float64(e.FullLatency())
	if impFull < 0 {
		impFull = 0
	}
	total += rem * impFull
	return total
}

// MonoCGProfit computes the expected profit of executing the kernel's
// monoCG-Extension for all e executions. The ECU uses monoCG only to bridge
// reconfiguration delays; the selector never selects it, but baselines and
// ablations use this estimate.
func MonoCGProfit(k *ise.Kernel, p Params) float64 {
	if !k.MonoCG.Available() || p.E <= 0 {
		return 0
	}
	imp := float64(k.RISCLatency) - float64(k.MonoCG.Latency)
	if imp <= 0 {
		return 0
	}
	// The context streams in within microseconds; executions before that
	// moment run in RISC mode.
	rm := riscModeExecutions(k, k.MonoCG.ReconfigCycles(), p)
	return (float64(p.E) - rm) * imp
}

// SteadyStateProfit is the profit of an ISE ignoring reconfiguration
// transients: e executions, each saving RISC - full latency. It
// upper-bounds Scratch.Profit and is used for branch-and-bound pruning and
// offline selection over aggregated traces.
func SteadyStateProfit(k *ise.Kernel, e *ise.ISE, executions int64) float64 {
	if executions <= 0 {
		return 0
	}
	imp := float64(k.RISCLatency) - float64(e.FullLatency())
	if imp < 0 {
		imp = 0
	}
	return imp * float64(executions)
}
