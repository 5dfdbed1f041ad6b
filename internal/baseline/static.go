package baseline

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/profit"
	"mrts/internal/reconfig"
	"mrts/internal/selector"
	"mrts/internal/trace"
)

// StaticRTS is a runtime system whose ISE selection was fixed offline: all
// selected ISEs are configured once at application start and never
// revised. Static systems have no Execution Control Unit: a kernel runs its
// selected ISE once it is fully reconfigured, and in RISC mode before that.
type StaticRTS struct {
	name string
	ctrl *reconfig.Controller

	// global is committed at Reset.
	global []*ise.ISE
	// byKernel is the static kernel -> ISE assignment.
	byKernel map[ise.KernelID]*ise.ISE

	// assign memoizes the byKernel lookup under a pointer key so the
	// per-execution path never hashes a kernel ID.
	assign map[*ise.Kernel]*ise.ISE

	// obsr records the commit and every dispatch when tracing is on (nil
	// otherwise; Reset removes it).
	obsr *obs.Recorder
}

var _ core.RuntimeSystem = (*StaticRTS)(nil)

// Name implements core.RuntimeSystem.
func (s *StaticRTS) Name() string { return s.name }

// Controller implements core.RuntimeSystem.
func (s *StaticRTS) Controller() *reconfig.Controller { return s.ctrl }

// Selected returns the static ISE assignment of the kernel, or nil.
func (s *StaticRTS) Selected(id ise.KernelID) *ise.ISE { return s.byKernel[id] }

// OnTrigger implements core.RuntimeSystem. Static systems perform no
// run-time selection (zero overhead).
func (s *StaticRTS) OnTrigger(_ *ise.FunctionalBlock, _ string, _ []ise.Trigger, now arch.Cycles) (arch.Cycles, error) {
	s.ctrl.Advance(now)
	return 0, nil
}

// Execute implements core.RuntimeSystem: the selected ISE when fully
// reconfigured, RISC mode otherwise.
func (s *StaticRTS) Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision {
	s.ctrl.Advance(now)
	if s.assign == nil {
		s.assign = make(map[*ise.Kernel]*ise.ISE)
	}
	e, known := s.assign[k]
	if !known {
		e = s.byKernel[k.ID]
		s.assign[k] = e
	}
	d := s.decide(k, e, now)
	if s.obsr != nil {
		ev := obs.Event{
			Cycle: now, Source: obs.SourceECU, Kind: obs.KindDispatch,
			Kernel: string(k.ID), Mode: d.Mode.String(), Level: d.Level,
			Latency: d.Latency,
		}
		if e != nil {
			ev.ISE = e.ID
		}
		s.obsr.Record(ev)
	}
	return d
}

func (s *StaticRTS) decide(k *ise.Kernel, e *ise.ISE, now arch.Cycles) ecu.Decision {
	if e == nil {
		// No ISE: nothing can ever accelerate the kernel.
		return ecu.Decision{Mode: ecu.RISC, Latency: k.RISCLatency, Until: ecu.Forever}
	}
	if s.ctrl.ConfiguredPrefix(e) == e.NumDataPaths() {
		return ecu.Decision{Mode: ecu.Full, Level: e.NumDataPaths(), Latency: e.FullLatency(), Until: ecu.Forever}
	}
	// RISC while the ISE streams in, until the next of its loads (or any
	// other) completes; once nothing is in flight, the ISE cannot
	// complete without a new commit.
	return ecu.Decision{Mode: ecu.RISC, Latency: k.RISCLatency, Until: s.ctrl.NextReady(now)}
}

// SetObserver installs (or, with nil, removes) the decision-trace recorder
// on the runtime system and its controller. Reset committed the whole
// selection before the simulator could install an observer, so an
// observed run starts with that commit's configuration events: one per
// data path in request order, scheduled at application start, exactly as
// the controller records a commit it observes.
func (s *StaticRTS) SetObserver(r *obs.Recorder) {
	s.obsr = r
	s.ctrl.SetObserver(r)
	if r == nil {
		return
	}
	seen := make(map[ise.DataPathID]bool)
	for _, e := range s.global {
		for _, d := range e.DataPaths {
			if seen[d.ID] {
				continue
			}
			seen[d.ID] = true
			ready, _ := s.ctrl.ReadyTime(d.ID)
			r.Record(obs.Event{
				Source: obs.SourceReconfig, Kind: obs.KindConfig,
				Path: string(d.ID), Fabric: d.Kind.String(), Ready: ready, Latency: d.ReconfigCycles(),
			})
		}
	}
}

// OnBlockEnd implements core.RuntimeSystem (static systems do not monitor).
func (s *StaticRTS) OnBlockEnd(*ise.FunctionalBlock, string, []ise.Trigger, []mpu.Observation, arch.Cycles) {
}

// Reset implements core.RuntimeSystem: the whole selection is configured
// at time zero (application start).
func (s *StaticRTS) Reset() {
	s.obsr = nil
	s.ctrl.Reset()
	if len(s.global) > 0 {
		if _, err := s.ctrl.CommitSelection(s.global, 0); err != nil {
			// The constructor verified the fit; a failure here is a bug.
			panic(fmt.Sprintf("baseline: %s: global selection no longer fits: %v", s.name, err))
		}
	}
}

// aggregateExecutions sums the per-kernel execution counts over the whole
// trace (the offline profile a compile-time selection works from).
func aggregateExecutions(tr *trace.Trace) map[ise.KernelID]int64 {
	total := make(map[ise.KernelID]int64)
	for i := range tr.Iterations {
		for _, l := range tr.Iterations[i].Loads {
			total[l.Kernel] += l.E
		}
	}
	return total
}

// NewMorpheus4S builds the Morpheus/4S-like baseline: one combined offline
// selection over all kernels of all functional blocks, restricted to
// pure-FG and pure-CG ISEs (loosely coupled fabrics cannot host one ISE
// across both), solved exactly as a two-dimensional multi-choice knapsack
// over steady-state profits, configured once at application start.
func NewMorpheus4S(cfg arch.Config, app *ise.Application, tr *trace.Trace) (*StaticRTS, error) {
	return newStatic("Morpheus/4S-like", cfg, app, tr, func(e *ise.ISE) bool {
		g := e.Grain()
		return g == arch.GrainFG || g == arch.GrainCG // no multi-grained ISEs on loosely coupled fabrics
	})
}

// NewOfflineOptimal builds the offline-optimal baseline: the optimal
// *static* selection for tightly coupled multi-grained fabrics (paper
// Section 5.2). Unlike Morpheus/4S it may pick multi-grained ISEs, and
// unlike mRTS it never revises the selection at run time — the paper notes
// that "run-time replacement gets less important" only as resources grow,
// which is exactly where this baseline catches up. The selection is the
// exact solution of the two-dimensional multi-choice knapsack over
// steady-state profits from the full trace (the offline scheme knows the
// true execution counts), configured once at application start.
func NewOfflineOptimal(cfg arch.Config, app *ise.Application, tr *trace.Trace) (*StaticRTS, error) {
	return newStatic("Offline-optimal", cfg, app, tr, func(*ise.ISE) bool { return true })
}

// newStatic builds a static runtime system named name: the exact
// two-dimensional multi-choice knapsack over the steady-state profits of
// every kernel's ISEs that pass the filter, on the whole trace's execution
// counts.
func newStatic(name string, cfg arch.Config, app *ise.Application, tr *trace.Trace, filter func(*ise.ISE) bool) (*StaticRTS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctrl, err := reconfig.NewController(cfg)
	if err != nil {
		return nil, err
	}
	totals := aggregateExecutions(tr)

	var kernels []*ise.Kernel
	for _, b := range app.Blocks {
		kernels = append(kernels, b.Kernels...)
	}
	groups := make([][]selector.Option, len(kernels))
	for i, k := range kernels {
		for _, e := range k.ISEs {
			if !filter(e) {
				continue
			}
			groups[i] = append(groups[i], selector.Option{
				Label:  e.ID,
				PRC:    e.CostPRC(),
				CG:     e.CostCG(),
				Profit: profit.SteadyStateProfit(k, e, totals[k.ID]),
			})
		}
	}
	picks, _ := selector.MultiChoiceKnapsack(groups, cfg.NPRC, cfg.NCG)

	s := &StaticRTS{name: name, ctrl: ctrl, byKernel: make(map[ise.KernelID]*ise.ISE)}
	for i, pi := range picks {
		if pi < 0 {
			continue
		}
		e := kernels[i].ISEByID(groups[i][pi].Label)
		s.global = append(s.global, e)
		s.byKernel[kernels[i].ID] = e
	}
	s.Reset()
	return s, nil
}
