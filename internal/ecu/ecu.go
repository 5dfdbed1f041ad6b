// Package ecu implements the Execution Control Unit of mRTS (paper
// Section 4.2, Fig. 7). For every kernel execution the ECU steers which
// implementation runs:
//
//  1. the selected ISE, if all of its data paths are reconfigured;
//  2. otherwise the best available intermediate ISE (the longest configured
//     prefix of the selected ISE's data paths, which may have been
//     completed by shared data paths of other ISEs);
//  3. otherwise a monoCG-Extension on a free CG-EDPE — the full kernel on
//     one coarse-grained fabric, bridging the long delay until the first
//     accelerated execution;
//  4. otherwise RISC mode on the core processor.
//
// # Verdict leases
//
// Decision.Until is the verdict's lease: the verdict repeats, unchanged,
// for every later execution of the same kernel that starts before Until,
// provided the reconfiguration controller's change version
// (reconfig.Controller.Version) does not advance and only executions
// happen in between — no trigger instruction, fault or repartition. In the
// paper's ECU a verdict can change only when a data-path or monoCG load
// completes or the fabric is mutated; the version covers the mutations and
// reconfig.Controller.NextReady names the next completion. So:
//
//   - Until is Forever for Full, for a ready monoCG slot with no selected
//     ISE that could overtake it, and (in the static baselines and RISC
//     mode) for a kernel without an ISE: only a mutation changes those
//     verdicts;
//   - every other verdict is leased until NextReady(now), the earliest
//     data-path or monoCG ready time after now (Forever if none);
//   - the zero Until is no lease at all: the caller asks again on the next
//     execution, so a runtime system that sets nothing stays correct.
//
// The simulator reuses a leased verdict without calling Execute, and
// charges a whole stretch of a block iteration in closed form when every
// kernel in it holds a lease that outlasts the stretch's last start (see
// sim.Stepper); a steady tail leased Forever is one such stretch.
package ecu

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/reconfig"
)

// Mode identifies which implementation the ECU dispatched.
type Mode int

const (
	// RISC executes the kernel with the core processor's base ISA.
	RISC Mode = iota
	// MonoCG executes the kernel's monoCG-Extension on one CG-EDPE.
	MonoCG
	// Intermediate executes an intermediate ISE (a configured prefix of
	// the selected ISE's data paths).
	Intermediate
	// Full executes the completely reconfigured selected ISE.
	Full
)

func (m Mode) String() string {
	switch m {
	case RISC:
		return "RISC"
	case MonoCG:
		return "monoCG"
	case Intermediate:
		return "intermediate"
	case Full:
		return "full-ISE"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Decision is the ECU's verdict for one kernel execution.
type Decision struct {
	Mode Mode
	// Level is the intermediate-ISE index (1..n-1) when Mode is
	// Intermediate, n for Full, otherwise 0.
	Level int
	// Latency is the execution latency of the dispatched implementation.
	Latency arch.Cycles
	// Until is the verdict's lease: it repeats for every execution of the
	// kernel that starts before Until while the controller's version is
	// unchanged (see the package documentation). Zero means no lease.
	Until arch.Cycles
}

// Forever is the unbounded lease: the verdict holds until the controller's
// version changes.
const Forever = reconfig.Forever

// Options tune the ECU for the ablation studies.
type Options struct {
	// DisableMonoCG removes step 3 of the flow.
	DisableMonoCG bool
	// DisableIntermediate removes step 2 of the flow: the kernel waits in
	// RISC/monoCG until the selected ISE is complete.
	DisableIntermediate bool
}

// ECU steers kernel executions against a reconfiguration controller.
type ECU struct {
	ctrl *reconfig.Controller
	opts Options
}

// New creates an ECU bound to a controller.
func New(ctrl *reconfig.Controller, opts Options) *ECU {
	return &ECU{ctrl: ctrl, opts: opts}
}

// Decide returns the implementation for one execution of kernel k at time
// now, given the ISE the selector picked for it (nil if none was selected).
// Decide advances the controller clock to now.
func (u *ECU) Decide(k *ise.Kernel, selected *ise.ISE, now arch.Cycles) Decision {
	u.ctrl.Advance(now)

	if selected != nil {
		prefix := u.ctrl.ConfiguredPrefix(selected)
		n := selected.NumDataPaths()
		if prefix == n {
			// Full holds forever: ready times never move under an
			// unchanged version and the clock only advances.
			return Decision{Mode: Full, Level: n, Latency: selected.FullLatency(), Until: Forever}
		}
		if prefix >= 1 && !u.opts.DisableIntermediate {
			// The prefix can grow as in-flight data paths complete,
			// without any controller mutation.
			return Decision{Mode: Intermediate, Level: prefix, Latency: selected.Latency(prefix),
				Until: u.ctrl.NextReady(now)}
		}
	}

	if !u.opts.DisableMonoCG && k.MonoCG.Available() {
		if ready, ok := u.ctrl.MonoCGReady(k.ID); ok && ready <= now {
			// A ready slot stays ready (releasing it bumps the version);
			// with a selected ISE, its in-flight data paths may still
			// overtake it.
			return Decision{Mode: MonoCG, Latency: k.MonoCG.Latency, Until: u.monoUntil(selected, now)}
		} else if !ok {
			// Load the extension into a free CG-EDPE; its context
			// streams in within microseconds, so it typically
			// serves the next execution. This one still runs in
			// RISC mode (paper: "readily available after few
			// RISC-mode executions").
			if ready, acquired := u.ctrl.AcquireMonoCG(k, now); acquired && ready <= now {
				return Decision{Mode: MonoCG, Latency: k.MonoCG.Latency, Until: u.monoUntil(selected, now)}
			}
		}
	}

	// RISC verdicts last only until the next pending reconfiguration or
	// monoCG load finishes: it may serve the next execution.
	return Decision{Mode: RISC, Latency: k.RISCLatency, Until: u.ctrl.NextReady(now)}
}

// monoUntil leases a ready monoCG verdict: forever without a selected ISE,
// otherwise until the next load completes, which may finish a prefix that
// overtakes the slot.
func (u *ECU) monoUntil(selected *ise.ISE, now arch.Cycles) arch.Cycles {
	if selected == nil {
		return Forever
	}
	return u.ctrl.NextReady(now)
}
