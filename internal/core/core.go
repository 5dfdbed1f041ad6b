// Package core implements the paper's primary contribution: the mRTS
// run-time system for multi-grained reconfigurable processors. It composes
// the Monitoring & Prediction Unit (internal/mpu), the ISE selector
// (internal/selector) with the multi-grained profit function
// (internal/profit), the Execution Control Unit (internal/ecu) and the
// reconfiguration controller (internal/reconfig) behind the RuntimeSystem
// interface that the architecture simulator (internal/sim) drives.
//
// The package also models the run-time system's own computational overhead
// (paper Section 5.4): the dominant cost is profit-function evaluations;
// only the first selection of a functional block is visible on the critical
// path, the rest is hidden behind the reconfiguration process.
package core

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/ecu"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/profit"
	"mrts/internal/reconfig"
	"mrts/internal/selector"
)

// RuntimeSystem is a run-time policy for a multi-grained reconfigurable
// processor. The simulator invokes OnTrigger when the core processor
// encounters a trigger instruction, Execute for every kernel execution, and
// OnBlockEnd when a functional-block iteration completes.
type RuntimeSystem interface {
	// Name identifies the policy in reports ("mRTS", "RISPP-like", ...).
	Name() string
	// Controller exposes the fabric state the policy operates on.
	Controller() *reconfig.Controller
	// OnTrigger reacts to a trigger instruction at time now. phase
	// identifies which of the block's trigger instructions fired (e.g.
	// the I-frame vs. the P-frame program path); triggers are the static
	// profile forecasts embedded in the binary; policies with an MPU
	// correct them first. The returned cycles are the selection overhead
	// visible on the critical path.
	OnTrigger(block *ise.FunctionalBlock, phase string, triggers []ise.Trigger, now arch.Cycles) (arch.Cycles, error)
	// Execute dispatches one execution of kernel k starting at time now
	// and advances Controller() to now. The returned Decision's Until is
	// its lease: the verdict repeats for every execution of k that starts
	// before Until while the controller's version is unchanged (see
	// package ecu). Until then the simulator reuses the verdict instead of
	// calling Execute, and once every kernel left in the iteration holds a
	// lease of ecu.Forever it charges the rest in closed form. The zero
	// Until grants no lease.
	Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision
	// OnBlockEnd delivers the monitored ground truth of the completed
	// iteration (for the MPU) together with the profile triggers in use.
	OnBlockEnd(block *ise.FunctionalBlock, phase string, profile []ise.Trigger, obs []mpu.Observation, now arch.Cycles)
	// Reset returns the policy and its fabric to the initial state.
	Reset()
}

// FaultHandler is implemented by runtime systems that react to fabric
// fault events (container failures and recoveries). The simulator applies
// each event batch to the reconfiguration controller first, then calls
// OnFault with the data paths that were lost; `lost` may be empty (e.g. a
// recovery, or a failed container that held nothing). The returned cycles
// are re-selection overhead visible on the critical path. OnFault must
// degrade rather than fail: a run never aborts because fabric died.
type FaultHandler interface {
	OnFault(lost []ise.DataPathID, now arch.Cycles) (arch.Cycles, error)
}

// Overhead cost model of the run-time system (paper Section 5.4): the
// selection cost is dominated by profit-function evaluations, whose count
// the selector reports.
const (
	// OverheadPerEvaluation is the modelled cost of one profit-function
	// evaluation on the dedicated CG-EDPE that hosts mRTS.
	OverheadPerEvaluation arch.Cycles = 55
	// OverheadPerSelection is the fixed cost per selection round
	// (candidate-list maintenance, hardware status update).
	OverheadPerSelection arch.Cycles = 25
)

// Stats accumulates runtime-system activity.
type Stats struct {
	// Selections counts trigger instructions processed.
	Selections int64
	// Evaluations counts profit-function evaluations.
	Evaluations int64
	// OverheadVisible is the selection overhead on the critical path.
	OverheadVisible arch.Cycles
	// OverheadTotal is the full selection cost including the part hidden
	// behind reconfigurations.
	OverheadTotal arch.Cycles
	// CacheHits and CacheMisses are always zero; they remain only because
	// perfbench reads them.
	CacheHits, CacheMisses int64
	// CoveredPicks counts ISEs selected directly by Fig. 6 Step 2b (fully
	// covered by previously selected data paths, no profit evaluation).
	CoveredPicks int64
	// SharedHits / SharedMisses count selections answered by (resp.
	// computed through) the cross-point memo a batch sweep attached via
	// SetSharedMemo.
	SharedHits   int64
	SharedMisses int64

	// FaultEvents counts fabric fault notifications delivered to the
	// runtime system.
	FaultEvents int64
	// Invalidations counts selected ISEs dropped because a data path
	// they reference was lost to a container failure.
	Invalidations int64
	// Reselections counts selections re-run in reaction to a fault.
	Reselections int64
	// Degradations counts selected ISEs that could not be (re)configured
	// on the surviving fabric; their kernels fall back through the ECU
	// chain (intermediate -> monoCG -> RISC).
	Degradations int64
}

// SelectFunc is a pluggable selection algorithm (selector.Greedy by default,
// selector.Optimal for the online-optimal yardstick).
type SelectFunc func(selector.Request) (selector.Result, error)

// Options configure an mRTS instance; the zero value is the paper's
// configuration.
type Options struct {
	// Model is the profit cost model (Multigrained by default).
	Model profit.Model
	// Select overrides the selection algorithm (Greedy by default).
	Select SelectFunc
	// ECU carries the execution-steering ablation switches.
	ECU ecu.Options
	// MPU carries predictor options (e.g. mpu.Disabled()).
	MPU []mpu.Option
	// ChargeOverhead controls whether the visible selection overhead is
	// charged to the timeline (true for mRTS; the online-optimal
	// yardstick disables it, since Fig. 9 compares selection quality).
	ChargeOverhead bool
	// Name overrides the policy name in reports.
	Name string
}

// MRTS is the mRTS run-time system.
type MRTS struct {
	name string
	ctrl *reconfig.Controller
	pred *mpu.Predictor
	exec *ecu.ECU
	opts Options

	// selected pairs each kernel object — the pointer the simulator hands
	// Execute — with its selected ISE. A selection holds a handful of
	// kernels, so Execute scans it; selections resolve kernel IDs to
	// pointers once, at selection time.
	selected []selection
	stats    Stats

	// sites caches the MPU site of each (block, phase) trigger
	// instruction seen, so a trigger resolves its site without building
	// the "block#phase" key.
	sites []siteRef
	// forecasts, choices and ises are the per-trigger buffers of
	// selectAndCommit.
	forecasts []ise.Trigger
	choices   []selector.Choice
	ises      []*ise.ISE

	// sharedMemo, when non-nil, answers selections from a cross-point
	// memo shared with other policy instances and sweep points over the
	// same workload (see selector.Memo). Only honoured when the policy
	// runs the default greedy selector (greedyDefault): the memo replays
	// greedy Results and must not stand in for a custom or optimal Select.
	sharedMemo    *selector.Memo
	greedyDefault bool

	// obsr records MPU, selector, ECU and core decision events when
	// tracing is on; nil otherwise. The recorder never feeds back into the
	// simulation, so traced runs are byte-identical to untraced ones.
	obsr *obs.Recorder

	// lastBlock / lastPhase / lastTriggers memoise the most recent
	// trigger instruction, so a fault mid-iteration can re-run the
	// selection for the block currently executing.
	lastBlock    *ise.FunctionalBlock
	lastPhase    string
	lastTriggers []ise.Trigger
	// inIteration is true between a trigger instruction and its block end:
	// the window in which a fault taints in-flight observations. A fault
	// delivered outside it (between iterations — e.g. by the vfabric
	// hypervisor, which only delivers to drained tenants) must not mark the
	// next iteration's clean observations for discard.
	inIteration bool
}

// selection is one entry of the current selection.
type selection struct {
	kernel *ise.Kernel
	ise    *ise.ISE
}

type siteRef struct {
	block *ise.FunctionalBlock
	phase string
	site  *mpu.Site
}

var _ RuntimeSystem = (*MRTS)(nil)
var _ FaultHandler = (*MRTS)(nil)

// New creates an mRTS instance managing the given fabric budget.
func New(cfg arch.Config, opts Options) (*MRTS, error) {
	ctrl, err := reconfig.NewController(cfg)
	if err != nil {
		return nil, err
	}
	greedyDefault := opts.Select == nil
	if greedyDefault {
		opts.Select = selector.Greedy
	}
	name := opts.Name
	if name == "" {
		name = "mRTS"
	}
	m := &MRTS{
		name:          name,
		ctrl:          ctrl,
		pred:          mpu.New(opts.MPU...),
		opts:          opts,
		greedyDefault: greedyDefault,
	}
	m.exec = ecu.New(ctrl, opts.ECU)
	return m, nil
}

// SetSharedMemo attaches (or, with nil, detaches) a cross-point selection
// memo that answers every selection of the run. The memo's keys
// fingerprint the selector's entire input surface (selector.Fingerprint),
// so a hit replays exactly the Result selector.Greedy would compute and
// the simulated timeline — including the modelled selection overhead — is
// byte-identical with the memo attached or not. The batch sweep engine
// (internal/batch) shares one memo across all policy instances and sweep
// points of a workload, so a selection computed at one resource point
// seeds its lattice neighbours. The call is a no-op for policies with a
// custom Select (the memo replays greedy results only; in particular,
// Optimal's branch-and-bound node count would not be reproduced). It
// reports whether the memo was attached. The memo survives Reset: its
// entries key on immutable workload objects, not run state.
func (m *MRTS) SetSharedMemo(memo *selector.Memo) bool {
	if !m.greedyDefault {
		return false
	}
	m.sharedMemo = memo
	return memo != nil
}

// SetObserver installs (or, with nil, removes) the decision-trace
// recorder on the runtime system and its reconfiguration controller. The
// simulator calls this per run (after Reset) when sim.Options.Observer is
// set, so a reused policy instance never streams into a stale trace.
func (m *MRTS) SetObserver(r *obs.Recorder) {
	m.obsr = r
	m.ctrl.SetObserver(r)
}

// MustNew is New for static configurations known to be valid.
func MustNew(cfg arch.Config, opts Options) *MRTS {
	m, err := New(cfg, opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements RuntimeSystem.
func (m *MRTS) Name() string { return m.name }

// Controller implements RuntimeSystem.
func (m *MRTS) Controller() *reconfig.Controller { return m.ctrl }

// Predictor exposes the MPU (examples and tests).
func (m *MRTS) Predictor() *mpu.Predictor { return m.pred }

// Stats returns a snapshot of the accumulated counters.
func (m *MRTS) Stats() Stats { return m.stats }

// Selected returns the ISE currently selected for the kernel, or nil
// (diagnostics and tests; Execute looks kernels up by pointer).
func (m *MRTS) Selected(id ise.KernelID) *ise.ISE {
	for _, s := range m.selected {
		if s.kernel.ID == id {
			return s.ise
		}
	}
	return nil
}

// selectedISE returns the ISE selected for the kernel object, or nil.
func (m *MRTS) selectedISE(k *ise.Kernel) *ise.ISE {
	for _, s := range m.selected {
		if s.kernel == k {
			return s.ise
		}
	}
	return nil
}

// site returns the MPU site of the block's trigger instruction for the
// phase, resolving it by key only on first sight.
func (m *MRTS) site(block *ise.FunctionalBlock, phase string) *mpu.Site {
	for _, r := range m.sites {
		if r.block == block && r.phase == phase {
			return r.site
		}
	}
	s := m.pred.Site(forecastKey(block.ID, phase))
	m.sites = append(m.sites, siteRef{block: block, phase: phase, site: s})
	return s
}

// OnTrigger implements RuntimeSystem: it corrects the trigger forecasts via
// the MPU, runs the ISE selection algorithm, commits the selection to the
// reconfiguration controller and returns the visible selection overhead.
func (m *MRTS) OnTrigger(block *ise.FunctionalBlock, phase string, triggers []ise.Trigger, now arch.Cycles) (arch.Cycles, error) {
	m.lastBlock, m.lastPhase = block, phase
	m.lastTriggers = triggers
	m.inIteration = true
	return m.selectAndCommit(block, phase, triggers, now)
}

// selectAndCommit is the selection pipeline shared by trigger instructions
// and fault reactions: MPU-corrected forecasts, the selection algorithm,
// and a fault-tolerant commit to the reconfiguration controller. ISEs the
// surviving fabric cannot hold are dropped from the selection (their
// kernels degrade through the ECU chain) instead of aborting the run.
func (m *MRTS) selectAndCommit(block *ise.FunctionalBlock, phase string, triggers []ise.Trigger, now arch.Cycles) (arch.Cycles, error) {
	m.ctrl.Advance(now)
	m.forecasts = m.site(block, phase).AppendForecasts(m.forecasts[:0], triggers)
	corrected := m.forecasts
	if m.obsr != nil {
		for i, t := range corrected {
			ev := obs.Event{
				Cycle: now, Source: obs.SourceMPU, Kind: obs.KindForecast,
				Block: block.ID, Phase: phase, Kernel: string(t.Kernel),
				E: t.E, TF: int64(t.TF), TB: int64(t.TB),
			}
			if i < len(triggers) && triggers[i] != t {
				ev.Detail = "corrected"
			} else {
				ev.Detail = "profile"
			}
			m.obsr.Record(ev)
		}
	}

	req := selector.Request{
		Block:    block,
		Triggers: corrected,
		Fabric:   m.ctrl.SelectionView(),
		Model:    m.opts.Model,
	}
	var (
		res    selector.Result
		shared bool
		err    error
	)
	switch {
	case m.sharedMemo != nil:
		res, shared, err = m.sharedMemo.GreedyWithHit(req)
	case m.greedyDefault:
		res, err = selector.GreedyInto(m.choices, req)
		m.choices = res.Selected
	default:
		res, err = m.opts.Select(req)
	}
	if err != nil {
		return 0, fmt.Errorf("core: selection for block %q: %w", block.ID, err)
	}
	if shared {
		m.stats.SharedHits++
	} else if m.sharedMemo != nil {
		m.stats.SharedMisses++
	}
	m.stats.CoveredPicks += int64(res.CoveredPicks)
	if m.obsr != nil {
		for i, c := range res.Selected {
			m.obsr.Record(obs.Event{
				Cycle: now, Source: obs.SourceSelector, Kind: obs.KindClaim,
				Block: block.ID, Phase: phase, Kernel: string(c.Kernel),
				ISE: c.ISE.ID, Round: i + 1, Profit: c.Profit,
			})
		}
	}

	// A skipped ISE keeps its kernel -> ISE assignment: its configured
	// prefix (if any) stays on the fabric, so the ECU can still dispatch
	// it as an intermediate ISE, and falls back to monoCG/RISC otherwise.
	m.ises = m.ises[:0]
	for _, c := range res.Selected {
		m.ises = append(m.ises, c.ISE)
	}
	commit := m.ctrl.CommitSelectionSafe(m.ises, now)
	m.stats.Degradations += int64(len(commit.Skipped))
	if m.obsr != nil {
		for _, i := range commit.Skipped {
			c := res.Selected[i]
			m.obsr.Record(obs.Event{
				Cycle: now, Source: obs.SourceCore, Kind: obs.KindSkip,
				Block: block.ID, Phase: phase, Kernel: string(c.Kernel), ISE: c.ISE.ID,
				Detail: "not configurable on surviving fabric",
			})
		}
	}
	m.selected = m.selected[:0]
	for _, c := range res.Selected {
		if k := block.Kernel(c.Kernel); k != nil {
			m.setSelected(k, c.ISE)
		}
	}

	total := arch.Cycles(res.Evaluations)*OverheadPerEvaluation +
		arch.Cycles(res.Rounds)*OverheadPerSelection
	visible := arch.Cycles(res.FirstRoundEvaluations)*OverheadPerEvaluation + OverheadPerSelection
	if visible > total {
		visible = total
	}
	m.stats.Selections++
	m.stats.Evaluations += int64(res.Evaluations)
	m.stats.OverheadTotal += total
	m.stats.OverheadVisible += visible
	if !m.opts.ChargeOverhead {
		visible = 0
	}
	return visible, nil
}

// setSelected assigns the kernel's ISE, replacing an earlier assignment.
func (m *MRTS) setSelected(k *ise.Kernel, e *ise.ISE) {
	for i := range m.selected {
		if m.selected[i].kernel == k {
			m.selected[i].ise = e
			return
		}
	}
	m.selected = append(m.selected, selection{kernel: k, ise: e})
}

// OnFault implements FaultHandler: selected ISEs whose data paths were
// lost are invalidated, the MPU is told to discard the disrupted
// iteration's observations, and — if a trigger instruction has been seen —
// the selection is re-run over the surviving fabric. Failures degrade
// (clear the selection, fall back to RISC) rather than abort.
func (m *MRTS) OnFault(lost []ise.DataPathID, now arch.Cycles) (arch.Cycles, error) {
	m.stats.FaultEvents++
	m.ctrl.Advance(now)
	if len(lost) > 0 {
		lostSet := make(map[ise.DataPathID]bool, len(lost))
		for _, id := range lost {
			lostSet[id] = true
		}
		kept := m.selected[:0]
		for _, s := range m.selected {
			lostPath := ise.DataPathID("")
			for _, d := range s.ise.DataPaths {
				if lostSet[d.ID] {
					lostPath = d.ID
					break
				}
			}
			if lostPath == "" {
				kept = append(kept, s)
				continue
			}
			m.stats.Invalidations++
			if m.obsr != nil {
				m.obsr.Record(obs.Event{
					Cycle: now, Source: obs.SourceCore, Kind: obs.KindInvalidate,
					Kernel: string(s.kernel.ID), ISE: s.ise.ID, Path: string(lostPath),
					Detail: "data path lost to container failure",
				})
			}
		}
		m.selected = kept
	}
	if m.lastBlock == nil {
		return 0, nil
	}
	visible, err := m.selectAndCommit(m.lastBlock, m.lastPhase, m.lastTriggers, now)
	// A fault that strikes while an iteration is in flight taints the
	// observations delivered at its block end: tell the MPU to discard
	// them. The mark lives until that block end consumes it (see
	// mpu.Predictor.BlockEnd), so it survives forecast pulls a pipelined
	// driver might issue in between. Faults delivered between iterations
	// taint nothing — the previous iteration's observations are already
	// folded and the next iteration's are clean.
	if m.inIteration {
		m.site(m.lastBlock, m.lastPhase).NoteDisruption()
		if m.obsr != nil {
			m.obsr.Record(obs.Event{
				Cycle: now, Source: obs.SourceMPU, Kind: obs.KindDisrupt,
				Block: m.lastBlock.ID, Phase: m.lastPhase,
				Detail: "iteration observations will be discarded",
			})
		}
	}
	if err != nil {
		// Selection itself failed: degrade to RISC for every kernel
		// rather than aborting the run.
		m.stats.Degradations++
		m.selected = m.selected[:0]
		return 0, nil
	}
	m.stats.Reselections++
	return visible, nil
}

// Execute implements RuntimeSystem: the ECU steers the execution.
func (m *MRTS) Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision {
	sel := m.selectedISE(k)
	d := m.exec.Decide(k, sel, now)
	if m.obsr != nil {
		ev := obs.Event{
			Cycle: now, Source: obs.SourceECU, Kind: obs.KindDispatch,
			Kernel: string(k.ID), Mode: d.Mode.String(), Level: d.Level,
			Latency: d.Latency,
		}
		if e := sel; e != nil {
			ev.ISE = e.ID
		}
		m.obsr.Record(ev)
	}
	return d
}

// OnBlockEnd implements RuntimeSystem: monitored values update the MPU,
// each observation is scored against the forecast the selector saw (the
// absolute error rides on the observe trace event), and the predictor's
// BlockEnd consumes a pending disruption mark at the discard site.
func (m *MRTS) OnBlockEnd(block *ise.FunctionalBlock, phase string, profile []ise.Trigger, obs []mpu.Observation, now arch.Cycles) {
	m.ctrl.Advance(now)
	site := m.site(block, phase)
	for _, o := range obs {
		absErr, scored := site.Observe(profileOf(profile, o.Kernel), o)
		if m.obsr != nil {
			ev := obsEvent(now, block.ID, phase, o)
			if scored {
				ev.Err = absErr
			}
			m.obsr.Record(ev)
		}
	}
	site.BlockEnd()
	m.inIteration = false
}

// profileOf returns the kernel's profile trigger (the last one listed for
// it), or the zero trigger.
func profileOf(profile []ise.Trigger, k ise.KernelID) ise.Trigger {
	for i := len(profile) - 1; i >= 0; i-- {
		if profile[i].Kernel == k {
			return profile[i]
		}
	}
	return ise.Trigger{}
}

// obsEvent builds the MPU observation event for one monitored kernel.
func obsEvent(now arch.Cycles, block, phase string, o mpu.Observation) obs.Event {
	return obs.Event{
		Cycle: now, Source: obs.SourceMPU, Kind: obs.KindObserve,
		Block: block, Phase: phase, Kernel: string(o.Kernel),
		E: o.E, TF: int64(o.TF), TB: int64(o.TB),
	}
}

// ForecastErrors exposes the MPU's forecast-error accounting; the simulator
// copies it into sim.Report.Forecast.
func (m *MRTS) ForecastErrors() mpu.ErrorReport { return m.pred.Errors() }

// forecastKey scopes MPU state to one trigger instruction: the same block
// may carry distinct trigger instructions on different program paths.
func forecastKey(block, phase string) string {
	if phase == "" {
		return block
	}
	return block + "#" + phase
}

// Reset implements RuntimeSystem. Like the controller's verifier, the
// observer does not survive a Reset: the simulator re-installs it per run.
func (m *MRTS) Reset() {
	m.obsr = nil
	m.ctrl.Reset()
	m.pred.Reset()
	m.selected = m.selected[:0]
	clear(m.sites)
	m.sites = m.sites[:0]
	m.stats = Stats{}
	m.lastBlock, m.lastPhase, m.lastTriggers = nil, "", nil
	m.inIteration = false
}

// RISCOnly is the null policy: every kernel executes on the core
// processor's base instruction set. It provides the speedup denominators of
// Fig. 8 and Fig. 10 (the first x-axis combination, "RISC-mode").
type RISCOnly struct {
	ctrl *reconfig.Controller
}

var _ RuntimeSystem = (*RISCOnly)(nil)

// NewRISCOnly creates the null policy (the fabric budget is ignored).
func NewRISCOnly() *RISCOnly {
	ctrl, err := reconfig.NewController(arch.Config{})
	if err != nil {
		panic(err) // empty config is always valid
	}
	return &RISCOnly{ctrl: ctrl}
}

// Name implements RuntimeSystem.
func (r *RISCOnly) Name() string { return "RISC-mode" }

// Controller implements RuntimeSystem.
func (r *RISCOnly) Controller() *reconfig.Controller { return r.ctrl }

// OnTrigger implements RuntimeSystem; trigger instructions are ignored.
func (r *RISCOnly) OnTrigger(*ise.FunctionalBlock, string, []ise.Trigger, arch.Cycles) (arch.Cycles, error) {
	return 0, nil
}

// Execute implements RuntimeSystem: always RISC mode, leased forever.
func (r *RISCOnly) Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision {
	r.ctrl.Advance(now)
	return ecu.Decision{Mode: ecu.RISC, Latency: k.RISCLatency, Until: ecu.Forever}
}

// OnBlockEnd implements RuntimeSystem.
func (r *RISCOnly) OnBlockEnd(*ise.FunctionalBlock, string, []ise.Trigger, []mpu.Observation, arch.Cycles) {
}

// Reset implements RuntimeSystem.
func (r *RISCOnly) Reset() { r.ctrl.Reset() }
