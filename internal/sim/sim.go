// Package sim is the architecture simulator: it replays a workload trace
// against a runtime system managing a multi-grained reconfigurable
// processor and accounts every cycle — software, kernel executions in their
// ECU-chosen modes, and visible runtime-system overhead. It substitutes the
// authors' proprietary cycle-accurate instruction-set simulator; the
// quantities the paper's experiments observe (execution time in cycles,
// execution-mode distribution, selection overhead) are exactly what it
// models.
package sim

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/fault"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/reconfig"
	"mrts/internal/trace"
)

// Report is the outcome of one simulation run.
type Report struct {
	// Policy is the runtime system's name.
	Policy string
	// Config is the fabric budget of the run.
	Config arch.Config
	// TotalCycles is the end-to-end execution time.
	TotalCycles arch.Cycles
	// SoftwareCycles counts prologue and inter-execution software time.
	SoftwareCycles arch.Cycles
	// KernelCycles counts cycles spent inside kernel executions.
	KernelCycles arch.Cycles
	// OverheadCycles is the runtime system's visible selection overhead.
	OverheadCycles arch.Cycles
	// ModeExecs / ModeCycles break kernel executions down by ECU mode.
	ModeExecs  [4]int64
	ModeCycles [4]arch.Cycles
	// BlockCycles aggregates time per functional block.
	BlockCycles map[string]arch.Cycles
	// BlockIterations counts iterations per functional block.
	BlockIterations map[string]int
	// Iterations is the total number of block iterations replayed.
	Iterations int
	// Executions is the total number of kernel executions replayed.
	Executions int64
	// Reconfig summarises the reconfiguration controller's activity.
	Reconfig reconfig.Stats
	// Fault summarises fault injection and the runtime system's
	// reaction; all-zero (and omitted from the wire encoding) for
	// fault-free runs.
	Fault FaultStats
	// Selection summarises the runtime system's own selection work (paper
	// Section 5.4); zero for policies that never select at run time.
	Selection SelectionStats
	// Forecast summarises the MPU's forecast accuracy: per-trigger and
	// total absolute execution-count error of the forecasts the selector
	// actually saw. Zero for policies without a predictor (static
	// baselines, RISC mode) and for runs with correction disabled.
	Forecast mpu.ErrorReport
}

// FaultStats aggregates fault activity of one run: what the fault engine
// did to the fabric (from reconfig.Stats) and how the runtime system
// reacted (from core.Stats).
type FaultStats struct {
	// Events counts fabric fault events applied (failures, outages,
	// recoveries — corruptions are consumed by the configuration port
	// and show up as CRCFailures instead).
	Events int64
	// UnitsFailed / UnitsRecovered count containers lost / returned.
	UnitsFailed    int64
	UnitsRecovered int64
	// CRCFailures / Retries / RetryCycles mirror the configuration
	// port's corruption handling.
	CRCFailures int64
	Retries     int64
	RetryCycles arch.Cycles
	// Reselections / Invalidations / Degradations mirror the runtime
	// system's reaction (zero for static systems, which cannot react).
	Reselections  int64
	Invalidations int64
	Degradations  int64
}

// SelectionStats mirrors the runtime system's selection counters (from
// core.Stats).
type SelectionStats struct {
	// Selections counts trigger instructions processed; Evaluations
	// counts profit-function evaluations.
	Selections  int64
	Evaluations int64
	// OverheadVisible is the selection cost on the critical path;
	// OverheadTotal includes the part hidden behind reconfigurations.
	OverheadVisible arch.Cycles
	OverheadTotal   arch.Cycles
}

// IsZero reports whether no fault activity occurred.
func (f FaultStats) IsZero() bool { return f == FaultStats{} }

// Speedup returns how much faster this run is than the reference run.
func (r *Report) Speedup(reference *Report) float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(reference.TotalCycles) / float64(r.TotalCycles)
}

// ModeShare returns the fraction of executions dispatched in the mode.
func (r *Report) ModeShare(m ecu.Mode) float64 {
	if r.Executions == 0 {
		return 0
	}
	return float64(r.ModeExecs[m]) / float64(r.Executions)
}

// Options parameterise a simulation run beyond workload and policy. The
// zero value is the plain fault-free, unreserved run.
type Options struct {
	// ReservePRC / ReserveCG shrink the fabric for the whole run
	// (competing tasks, paper Section 1).
	ReservePRC int
	ReserveCG  int
	// Faults is the fault schedule to interleave with the trace (nil for
	// the benign scenario). The schedule is immutable and may be shared
	// across concurrent runs; each run replays it through its own engine
	// cursor.
	Faults *fault.Schedule
	// Observer, when non-nil, receives the run's decision-trace events
	// (MPU corrections, selector claims, ECU dispatches, reconfiguration
	// port activity, fault deliveries, cache traffic). The observer is
	// strictly a tap: a traced run's Report is byte-identical to an
	// untraced one.
	Observer *obs.Recorder
}

// Run replays the trace against the runtime system. The runtime system is
// Reset first, so a Run is reproducible on a reused policy instance.
func Run(app *ise.Application, tr *trace.Trace, rts core.RuntimeSystem) (*Report, error) {
	return RunOpts(app, tr, rts, Options{})
}

// RunOpts replays the trace under the given options. Fault events are
// delivered at trigger instructions and between kernel executions — the
// points where the modelled hardware raises its fault interrupts — and a
// fault never aborts the run: affected kernels degrade through the ECU
// fallback chain, and a reacting runtime system re-selects over the
// surviving fabric.
func RunOpts(app *ise.Application, tr *trace.Trace, rts core.RuntimeSystem, opts Options) (*Report, error) {
	s, err := NewStepper(app, tr, rts, opts)
	if err != nil {
		return nil, err
	}
	for !s.Done() {
		if err := s.Step(); err != nil {
			return nil, err
		}
	}
	return s.Finish(), nil
}

// Stepper replays a trace one functional-block iteration at a time. It is
// the single replay implementation underneath RunOpts — a monolithic run
// is NewStepper followed by Step until Done and Finish — and the primitive
// the vfabric hypervisor interleaves to run K tenants against one shared
// fabric clock: between two Steps a tenant is *drained* (no execution in
// flight), which is exactly when the hypervisor may repartition its
// vFabric or migrate its configured data paths.
type Stepper struct {
	app  *ise.Application
	tr   *trace.Trace
	rts  core.RuntimeSystem
	opts Options

	ctrl   *reconfig.Controller
	eng    *fault.Engine
	fh     core.FaultHandler
	reacts bool

	rep  *Report
	t    arch.Cycles
	next int
	// walked counts the executions replayed one by one rather than in a
	// closed-form window.
	walked int64

	// Per-Step scratch, reused across iterations: the per-kernel tracks
	// (indexed like the iteration's trace.Schedule) and the observation
	// batch handed to OnBlockEnd. The runtime-system contract is that
	// OnBlockEnd consumes the observations synchronously (the MPU copies
	// what it keeps), so the slice can be recycled next Step.
	tracks  []track
	obsvBuf []mpu.Observation
}

// NewStepper validates the trace, resets the runtime system, applies the
// reservation, installs the fault verifier and observer, and positions the
// stepper before the first iteration. It performs exactly the setup
// RunOpts performs, so a Stepper-driven run is byte-identical to a
// monolithic one.
func NewStepper(app *ise.Application, tr *trace.Trace, rts core.RuntimeSystem, opts Options) (*Stepper, error) {
	if err := tr.Validate(app); err != nil {
		return nil, err
	}
	rts.Reset()
	if opts.ReservePRC > 0 || opts.ReserveCG > 0 {
		if err := rts.Controller().Reserve(opts.ReservePRC, opts.ReserveCG); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	ctrl := rts.Controller()
	var eng *fault.Engine
	if opts.Faults != nil {
		eng = opts.Faults.Engine()
		ctrl.SetVerifier(eng)
	} else {
		// Reset cleared any previous verifier; be explicit anyway so a
		// reused policy instance never replays stale faults.
		ctrl.SetVerifier(nil)
	}
	// Open the decision trace with the run marker, then install the
	// observer (or, explicitly, none — same stale-state reasoning as the
	// verifier). Runtime systems with their own recording sites get it via
	// the optional interface (a static policy then records the commit its
	// Reset made unobserved); the others still trace reconfiguration-port
	// activity through the controller.
	if opts.Observer != nil {
		cfg := rts.Controller().Config()
		opts.Observer.Record(obs.Event{
			Source: obs.SourceSim, Kind: obs.KindRun,
			Detail: fmt.Sprintf("policy=%s prc=%d cg=%d", rts.Name(), cfg.NPRC, cfg.NCG),
		})
	}
	if so, ok := rts.(interface{ SetObserver(*obs.Recorder) }); ok {
		so.SetObserver(opts.Observer)
	} else {
		ctrl.SetObserver(opts.Observer)
	}
	fh, reacts := rts.(core.FaultHandler)
	return &Stepper{
		app:    app,
		tr:     tr,
		rts:    rts,
		opts:   opts,
		ctrl:   ctrl,
		eng:    eng,
		fh:     fh,
		reacts: reacts,
		rep: &Report{
			Policy:          rts.Name(),
			Config:          rts.Controller().Config(),
			BlockCycles:     make(map[string]arch.Cycles),
			BlockIterations: make(map[string]int),
		},
	}, nil
}

// Done reports whether every iteration has been replayed.
func (s *Stepper) Done() bool { return s.next >= len(s.tr.Iterations) }

// Now returns the run's local clock: the end time of the last replayed
// iteration (0 before the first Step).
func (s *Stepper) Now() arch.Cycles { return s.t }

// Remaining returns the number of iterations not yet replayed — the
// demand signal the vfabric hypervisor repartitions on.
func (s *Stepper) Remaining() int { return len(s.tr.Iterations) - s.next }

// RTS exposes the runtime system the stepper drives (the hypervisor
// reaches its reconfiguration controller through it between Steps).
func (s *Stepper) RTS() core.RuntimeSystem { return s.rts }

// AddOverhead charges extra visible runtime-system overhead between
// iterations, advancing the local clock. The vfabric hypervisor uses it
// for repartition work performed on the tenant's critical path; a plain
// RunOpts run never calls it.
func (s *Stepper) AddOverhead(c arch.Cycles) {
	if c <= 0 {
		return
	}
	s.t += c
	s.rep.OverheadCycles += c
}

// track is one kernel's part of the iteration being replayed: n
// executions so far, the first starting at first, the latest ending at
// lastEnd, and sumL their summed latency. The gaps between consecutive
// executions then sum to lastEnd − first − sumL, so a closed-form window
// need not know where a kernel's executions before its last one fall.
type track struct {
	k                    *ise.Kernel
	first, lastEnd, sumL arch.Cycles
	n                    int64
	// d is the kernel's last verdict and until its lease at the version
	// the step last saw (zero: none; see Step).
	d     ecu.Decision
	until arch.Cycles
}

// deliver applies the container fault events due at `now` to the
// reconfiguration controller and notifies the runtime system once per
// batch; it returns the visible re-selection overhead. Only a run with a
// fault engine calls it.
func (s *Stepper) deliver(now arch.Cycles) (arch.Cycles, error) {
	events := s.eng.Next(now)
	if len(events) == 0 {
		return 0, nil
	}
	// The fault strikes at `now`; the controller's clock may still sit
	// at its last Advance. Move it forward before applying so the
	// controller's own trace events carry the delivery time. Nothing in
	// the fault application reads the clock, and every runtime system
	// re-advances to `now` on its next call, so this cannot change the
	// simulated outcome.
	s.ctrl.Advance(now)
	for _, ev := range events {
		if s.opts.Observer != nil {
			s.opts.Observer.Record(obs.Event{
				Cycle: now, Source: obs.SourceSim, Kind: obs.KindFault,
				Fabric: ev.Fabric.String(), Detail: ev.Kind.String(),
			})
		}
		switch ev.Kind {
		case fault.PermanentFail:
			s.ctrl.FailUnit(ev.Fabric, true)
		case fault.TransientDown:
			s.ctrl.FailUnit(ev.Fabric, false)
		case fault.Recover:
			s.ctrl.RecoverUnit(ev.Fabric)
		}
	}
	s.rep.Fault.Events += int64(len(events))
	lost := s.ctrl.TakeInvalidated()
	if !s.reacts {
		return 0, nil
	}
	visible, err := s.fh.OnFault(lost, now)
	if err != nil {
		return 0, fmt.Errorf("sim: fault reaction: %w", err)
	}
	return visible, nil
}

// Step replays exactly one functional-block iteration: fault delivery,
// the trigger instruction, the prologue, the merged execution schedule,
// and the block-end observation feedback.
func (s *Stepper) Step() error {
	if s.Done() {
		return fmt.Errorf("sim: step past the end of the trace")
	}
	i := s.next
	it := &s.tr.Iterations[i]
	blk := s.app.Block(it.Block)
	rep := s.rep
	t := s.t
	start := t

	// Fault events that struck since the last delivery point are
	// applied before the trigger instruction sees the fabric.
	if s.eng != nil {
		fv, err := s.deliver(t)
		if err != nil {
			return err
		}
		t += fv
		rep.OverheadCycles += fv
	}

	// Trigger instruction: the runtime system selects ISEs and
	// starts reconfigurations; its visible overhead extends the
	// software path.
	profile := s.tr.ProfileFor(it.Block, it.Phase)
	visible, err := s.rts.OnTrigger(blk, it.Phase, profile, t)
	if err != nil {
		return fmt.Errorf("sim: iteration %d: %w", i, err)
	}
	t += visible
	rep.OverheadCycles += visible

	t += it.Prologue
	rep.SoftwareCycles += it.Prologue

	// Replay the merged single-core execution schedule (memoized on the
	// trace — identical for every run over the same workload).
	sch := s.tr.MergedLoads(i)
	n := len(sch.Kernels)
	if cap(s.tracks) < n {
		s.tracks = make([]track, n)
	}
	tracks := s.tracks[:n]
	clear(tracks)
	for k, id := range sch.Kernels {
		tracks[k].k = blk.Kernel(id)
	}
	// Lease bookkeeping: an execution that starts while its kernel's
	// verdict is leased (t < until, at the version the lease was taken)
	// reuses it without calling Execute. At every chunk boundary of the
	// schedule, and after every Execute call that grants a lease, the
	// stretch up to the farthest later boundary that every kernel in it
	// reaches under its lease is charged in closed form (window);
	// otherwise the executions are walked one by one up to the next
	// boundary or lease. An observer (one dispatch event per execution)
	// or a fault schedule (deliveries between executions) keeps the
	// per-execution walk: no lease is ever taken.
	fast := s.eng == nil && s.opts.Observer == nil
	var ver uint64
	if fast {
		ver = s.ctrl.Version()
	}
	for p, end := 0, len(sch.Order); p < end; {
		if fast {
			if q := window(sch, tracks, p, t); q > 0 {
				t = s.charge(sch, tracks, q, t)
				p = min(q*trace.Stride, end)
				continue
			}
		}
		from := p
		for stop := min(p-p%trace.Stride+trace.Stride, end); p < stop; {
			k := sch.Order[p]
			p++
			tk := &tracks[k]
			gap := sch.Gap[k]
			t += gap
			rep.SoftwareCycles += gap

			if s.eng != nil {
				fv, err := s.deliver(t)
				if err != nil {
					return err
				}
				t += fv
				rep.OverheadCycles += fv
			}

			d := tk.d
			leased := false
			if t < tk.until {
				// Execute would return the leased verdict; it would
				// only advance the controller clock.
				s.ctrl.Advance(t)
			} else {
				d = s.rts.Execute(tk.k, t)
				if fast {
					if v := s.ctrl.Version(); v != ver {
						// A mutation revokes every lease, but not the
						// verdict just taken against the new state.
						ver = v
						for j := range tracks {
							tracks[j].until = 0
						}
					}
					tk.d, tk.until = d, d.Until
					leased = d.Until > t
				}
			}
			rep.ModeExecs[d.Mode]++
			rep.ModeCycles[d.Mode] += d.Latency
			rep.KernelCycles += d.Latency
			rep.Executions++

			if tk.n == 0 {
				tk.first = t
			}
			tk.n++
			tk.sumL += d.Latency
			t += d.Latency
			tk.lastEnd = t
			if leased {
				// The new lease may complete a window.
				break
			}
		}
		s.walked += int64(p - from)
	}

	// Monitored ground truth for the MPU.
	obsv := s.obsvBuf[:0]
	for k, id := range sch.Kernels {
		tk := &tracks[k]
		var tb arch.Cycles
		if tk.n > 1 {
			tb = (tk.lastEnd - tk.first - tk.sumL) / arch.Cycles(tk.n-1)
		}
		obsv = append(obsv, mpu.Observation{Kernel: id, E: tk.n, TF: tk.first - start, TB: tb})
	}
	s.rts.OnBlockEnd(blk, it.Phase, profile, obsv, t)
	s.obsvBuf = obsv[:0]

	rep.BlockCycles[it.Block] += t - start
	rep.BlockIterations[it.Block]++
	rep.Iterations++
	s.t = t
	s.next = i + 1
	return nil
}

// window returns the farthest Prefix row q whose boundary lies after
// position p and whose stretch, the executions from p up to that
// boundary, replays at the tracks' leased verdicts, or 0 if none does.
// The tracks hold the counts at p and t is the clock there. The stretch
// holds every one of its kernels' leases, and so needs no Execute call, if
// its last start falls before the Until of every kernel in it (fits). A
// kernel without a lease has Until 0, so it blocks any stretch it is in.
// A stretch that fits contains only stretches that fit, so once the next
// row fits, the rest of the iteration is tried (a steady tail), and
// otherwise the farthest row is found by galloping out and bisecting.
func window(sch *trace.Schedule, tracks []track, p int, t arch.Cycles) int {
	lo, last := p/trace.Stride+1, sch.Chunks()
	if !fits(sch, tracks, lo, t) {
		return 0
	}
	if lo == last || fits(sch, tracks, last, t) {
		return last
	}
	hi := last // row lo fits, row hi does not
	for step := 1; lo+step < hi; step *= 2 {
		if !fits(sch, tracks, lo+step, t) {
			hi = lo + step
			break
		}
		lo += step
	}
	for hi-lo > 1 {
		if q := (lo + hi) / 2; fits(sch, tracks, q, t) {
			lo = q
		} else {
			hi = q
		}
	}
	return lo
}

// fits reports whether the stretch from the tracks' counts up to row q
// replays at fixed verdicts from clock t: with w_j = G_j + L_j and r_j
// executions of kernel j in it, it ends at t + Σ r_j·w_j, and its last
// start is that end minus the last execution's latency.
func fits(sch *trace.Schedule, tracks []track, q int, t arch.Cycles) bool {
	n := len(tracks)
	row := sch.Prefix[q*n : (q+1)*n]
	until := ecu.Forever
	for j := range tracks {
		tk := &tracks[j]
		if r := int64(row[j]) - tk.n; r > 0 {
			t += arch.Cycles(r) * (sch.Gap[j] + tk.d.Latency)
			until = min(until, tk.until)
		}
	}
	end := min(q*trace.Stride, len(sch.Order))
	return t-tracks[sch.Order[end-1]].d.Latency < until
}

// charge replays the stretch from the tracks' counts up to Prefix row q,
// from clock t, in closed form, and returns the clock at its end. Every
// kernel j with r_j executions in it repeats its leased verdict (latency
// L_j) after its software gap G_j. A kernel k whose last execution falls
// in the stretch ends it at t + Σ_j (Count_j − n_j − After[k][j])·w_j,
// since that many executions of kernel j lie between the cursor and k's
// last one (inclusive); any other kernel's lastEnd is rewritten by its
// later executions. The controller is advanced to the stretch's last
// start, exactly where its last Execute call would have left it.
func (s *Stepper) charge(sch *trace.Schedule, tracks []track, q int, t arch.Cycles) arch.Cycles {
	rep := s.rep
	n := len(tracks)
	row := sch.Prefix[q*n : (q+1)*n]
	from := t
	for j := range tracks {
		tk := &tracks[j]
		r := int64(row[j]) - tk.n
		if r == 0 {
			continue
		}
		d := tk.d
		lat := arch.Cycles(r) * d.Latency
		rep.ModeExecs[d.Mode] += r
		rep.ModeCycles[d.Mode] += lat
		rep.KernelCycles += lat
		rep.SoftwareCycles += arch.Cycles(r) * sch.Gap[j]
		rep.Executions += r
		tk.sumL += lat
		t += arch.Cycles(r) * (sch.Gap[j] + d.Latency)
	}
	for k := range tracks {
		tk := &tracks[k]
		if tk.n == sch.Count[k] || int64(row[k]) < sch.Count[k] {
			continue
		}
		end := from
		after := sch.After[k*n : (k+1)*n]
		for j := range tracks {
			if c := sch.Count[j] - tracks[j].n - after[j]; c > 0 {
				end += arch.Cycles(c) * (sch.Gap[j] + tracks[j].d.Latency)
			}
		}
		tk.lastEnd = end
	}
	// The pass above reads every track's count at the cursor, so the
	// counts move to row q only now.
	for j := range tracks {
		tracks[j].n = int64(row[j])
	}
	end := min(q*trace.Stride, len(sch.Order))
	s.ctrl.Advance(t - tracks[sch.Order[end-1]].d.Latency)
	return t
}

// Finish seals the report: total time and the controller's and runtime
// system's final counters. Call it once, after Done; the returned Report
// is owned by the caller.
func (s *Stepper) Finish() *Report {
	rep := s.rep
	rep.TotalCycles = s.t
	rep.Reconfig = s.rts.Controller().Stats()
	rep.Fault.UnitsFailed = rep.Reconfig.UnitsFailed
	rep.Fault.UnitsRecovered = rep.Reconfig.UnitsRecovered
	rep.Fault.CRCFailures = rep.Reconfig.CRCFailures
	rep.Fault.Retries = rep.Reconfig.Retries
	rep.Fault.RetryCycles = rep.Reconfig.RetryCycles
	if cs, ok := s.rts.(interface{ Stats() core.Stats }); ok {
		st := cs.Stats()
		rep.Fault.Reselections = st.Reselections
		rep.Fault.Invalidations = st.Invalidations
		rep.Fault.Degradations = st.Degradations
		rep.Selection = SelectionStats{
			Selections:      st.Selections,
			Evaluations:     st.Evaluations,
			OverheadVisible: st.OverheadVisible,
			OverheadTotal:   st.OverheadTotal,
		}
	}
	if fe, ok := s.rts.(interface{ ForecastErrors() mpu.ErrorReport }); ok {
		rep.Forecast = fe.ForecastErrors()
	}
	return rep
}

// RunRISC replays the trace in pure RISC mode and returns the reference
// report for speedup computations.
func RunRISC(app *ise.Application, tr *trace.Trace) (*Report, error) {
	return Run(app, tr, core.NewRISCOnly())
}
