package sim

import (
	"reflect"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/reconfig"
	"mrts/internal/trace"
)

// testWorld builds a tiny application and trace with fully predictable
// numbers: one block, one kernel (RISC 100 cycles), one CG ISE (latency 40,
// reconfig 15 cycles).
func testWorld(t *testing.T) (*ise.Application, *trace.Trace) {
	t.Helper()
	k := &ise.Kernel{
		ID: "k", RISCLatency: 100,
		ISEs: []*ise.ISE{{
			ID: "k.cg1", Kernel: "k",
			DataPaths: []ise.DataPath{{ID: "k_cg", Kind: arch.CG, CGs: 1}},
			Latencies: []arch.Cycles{40},
		}},
	}
	blk := &ise.FunctionalBlock{ID: "b", Kernels: []*ise.Kernel{k}}
	app, err := ise.NewApplication("tiny", blk)
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{
		App: "tiny",
		Iterations: []trace.Iteration{
			{Block: "b", Seq: 0, Prologue: 50, Loads: []trace.KernelLoad{{Kernel: "k", E: 10, GapSW: 5}}},
			{Block: "b", Seq: 1, Prologue: 50, Loads: []trace.KernelLoad{{Kernel: "k", E: 10, GapSW: 5}}},
		},
	}
	if err := tr.BuildProfile(app); err != nil {
		t.Fatal(err)
	}
	return app, tr
}

func TestRunRISCAnalytic(t *testing.T) {
	app, tr := testWorld(t)
	rep, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	// 2 iterations x (prologue 50 + 10 x (gap 5 + RISC 100)).
	want := arch.Cycles(2 * (50 + 10*(5+100)))
	if rep.TotalCycles != want {
		t.Errorf("RISC total = %d, want %d", rep.TotalCycles, want)
	}
	if rep.Executions != 20 {
		t.Errorf("executions = %d, want 20", rep.Executions)
	}
	if rep.ModeExecs[ecu.RISC] != 20 {
		t.Errorf("RISC executions = %d", rep.ModeExecs[ecu.RISC])
	}
}

func TestRunConservation(t *testing.T) {
	app, tr := testWorld(t)
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	rep, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle accounting must add up exactly.
	sum := rep.SoftwareCycles + rep.KernelCycles + rep.OverheadCycles
	if rep.TotalCycles != sum {
		t.Errorf("total %d != software %d + kernels %d + overhead %d",
			rep.TotalCycles, rep.SoftwareCycles, rep.KernelCycles, rep.OverheadCycles)
	}
	var modeSum arch.Cycles
	for _, c := range rep.ModeCycles {
		modeSum += c
	}
	if modeSum != rep.KernelCycles {
		t.Errorf("mode cycles %d != kernel cycles %d", modeSum, rep.KernelCycles)
	}
	var blockSum arch.Cycles
	for _, c := range rep.BlockCycles {
		blockSum += c
	}
	if blockSum != rep.TotalCycles {
		t.Errorf("block cycles %d != total %d", blockSum, rep.TotalCycles)
	}
}

func TestRunAcceleratedBeatsRISC(t *testing.T) {
	app, tr := testWorld(t)
	ref, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	rep, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles >= ref.TotalCycles {
		t.Errorf("accelerated run (%d) not faster than RISC (%d)", rep.TotalCycles, ref.TotalCycles)
	}
	if s := rep.Speedup(ref); s <= 1 {
		t.Errorf("speedup = %v", s)
	}
	// Most executions should use the full ISE (reconfig is 15 cycles).
	if rep.ModeExecs[ecu.Full] < 15 {
		t.Errorf("full-ISE executions = %d, want most of 20", rep.ModeExecs[ecu.Full])
	}
}

func TestRunDeterministic(t *testing.T) {
	app, tr := testWorld(t)
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	r1, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running on the same policy instance must reset state and give
	// identical results.
	r2, err := Run(app, tr, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCycles != r2.TotalCycles || r1.Executions != r2.Executions {
		t.Errorf("runs differ: %d vs %d cycles", r1.TotalCycles, r2.TotalCycles)
	}
}

func TestRunValidatesTrace(t *testing.T) {
	app, tr := testWorld(t)
	tr.Iterations = append(tr.Iterations, trace.Iteration{Block: "missing"})
	if _, err := RunRISC(app, tr); err == nil {
		t.Error("invalid trace accepted")
	}
}

func TestRunPerBlockAccounting(t *testing.T) {
	app, tr := testWorld(t)
	rep, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BlockIterations["b"] != 2 || rep.Iterations != 2 {
		t.Errorf("iterations = %d / %v", rep.Iterations, rep.BlockIterations)
	}
}

func TestModeShare(t *testing.T) {
	app, tr := testWorld(t)
	rep, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ModeShare(ecu.RISC); got != 1 {
		t.Errorf("RISC share = %v, want 1", got)
	}
	if got := rep.ModeShare(ecu.Full); got != 0 {
		t.Errorf("full share = %v, want 0", got)
	}
}

func TestObservationsReachMPU(t *testing.T) {
	// The MPU should learn from observations: after running iteration 1
	// with profile E=10, the forecast for the next trigger reflects it.
	app, tr := testWorld(t)
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	if _, err := Run(app, tr, m); err != nil {
		t.Fatal(err)
	}
	if m.Predictor().Len() == 0 {
		t.Error("MPU learned nothing from the run")
	}
}

func TestRunReserved(t *testing.T) {
	app, tr := testWorld(t)
	// Reserving the only CG-EDPE forces pure RISC execution.
	m := core.MustNew(arch.Config{NCG: 1}, core.Options{ChargeOverhead: true})
	rep, err := RunOpts(app, tr, m, Options{ReserveCG: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModeExecs[ecu.Full] != 0 {
		t.Errorf("reserved fabric still executed %d full-ISE", rep.ModeExecs[ecu.Full])
	}
	ref, err := RunRISC(app, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Apart from selection overhead the run degenerates to RISC mode.
	if rep.KernelCycles != ref.KernelCycles {
		t.Errorf("kernel cycles %d != RISC %d under full reservation", rep.KernelCycles, ref.KernelCycles)
	}
	// An impossible reservation errors.
	if _, err := RunOpts(app, tr, m, Options{ReservePRC: 5}); err == nil {
		t.Error("over-budget reservation accepted")
	}
}

// scriptRTS is a runtime system whose verdicts follow a script, so the
// lease reuse and the closed-form windows can be checked against
// the per-execution loop down to every observation: each kernel's first
// execution of an iteration is an unleased RISC verdict, later ones a
// verdict leased until lease(now) (Forever when lease is nil) at a
// per-kernel latency, and the first execution of kernel bumpOn in each
// iteration bumps the controller's version and changes every latency.
// Like a real runtime system, it mutates the controller only in a call
// that returns an unleased verdict. Every Execute call is logged.
type scriptRTS struct {
	ctrl   *reconfig.Controller
	mono   *ise.Kernel
	bumpOn ise.KernelID
	lease  func(now arch.Cycles) arch.Cycles

	seen   map[ise.KernelID]bool
	bumped arch.Cycles
	execs  int
	iter   int
	calls  []scriptCall
	obsv   []mpu.Observation
}

// scriptCall is one logged Execute call.
type scriptCall struct {
	iter int
	k    ise.KernelID
	now  arch.Cycles
}

func newScriptRTS(t *testing.T, bumpOn ise.KernelID) *scriptRTS {
	t.Helper()
	ctrl, err := reconfig.NewController(arch.Config{NCG: 1})
	if err != nil {
		t.Fatal(err)
	}
	mono := &ise.Kernel{ID: "bump", RISCLatency: 1, MonoCG: ise.MonoCGExt{Latency: 1, Instructions: 1}}
	return &scriptRTS{ctrl: ctrl, mono: mono, bumpOn: bumpOn}
}

func (r *scriptRTS) Name() string                     { return "script" }
func (r *scriptRTS) Controller() *reconfig.Controller { return r.ctrl }
func (r *scriptRTS) Reset() {
	r.ctrl.Reset()
	r.execs, r.iter, r.calls, r.obsv = 0, -1, nil, nil
}

func (r *scriptRTS) OnTrigger(*ise.FunctionalBlock, string, []ise.Trigger, arch.Cycles) (arch.Cycles, error) {
	r.seen, r.bumped = map[ise.KernelID]bool{}, 0
	r.iter++
	return 0, nil
}

func (r *scriptRTS) Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision {
	r.ctrl.Advance(now)
	r.execs++
	r.calls = append(r.calls, scriptCall{r.iter, k.ID, now})
	if !r.seen[k.ID] {
		r.seen[k.ID] = true
		if k.ID == r.bumpOn {
			// Loading and dropping a monoCG slot bumps the version.
			r.ctrl.AcquireMonoCG(r.mono, now)
			r.ctrl.ReleaseMonoCG(r.mono.ID)
			r.bumped = 7
		}
		return ecu.Decision{Mode: ecu.RISC, Latency: k.RISCLatency}
	}
	until := ecu.Forever
	if r.lease != nil {
		until = r.lease(now)
	}
	return ecu.Decision{Mode: ecu.Full, Latency: k.RISCLatency/4 + r.bumped, Until: until}
}

func (r *scriptRTS) OnBlockEnd(_ *ise.FunctionalBlock, _ string, _ []ise.Trigger, o []mpu.Observation, _ arch.Cycles) {
	r.obsv = append(r.obsv, o...)
}

// scriptWorld is a four-kernel block. Its first four iterations fit in
// one schedule chunk with few executions per kernel, where an off-by-one
// in any track field shows in the integer observations; the last four
// span several chunks, so closed-form windows start and end inside them.
// Kernel d executes once, mid-iteration, and kernel c three or four times.
func scriptWorld(t *testing.T) (*ise.Application, *trace.Trace) {
	t.Helper()
	var kernels []*ise.Kernel
	for i, id := range []ise.KernelID{"a", "b", "c", "d"} {
		kernels = append(kernels, &ise.Kernel{ID: id, RISCLatency: arch.Cycles(40 + 12*i)})
	}
	app, err := ise.NewApplication("script", &ise.FunctionalBlock{ID: "blk", Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{App: "script"}
	for i := 0; i < 8; i++ {
		a, b := int64(5+i), int64(7)
		if i >= 4 {
			a, b = int64(100+9*i), 150
		}
		tr.Iterations = append(tr.Iterations, trace.Iteration{Block: "blk", Seq: i, Prologue: 9, Loads: []trace.KernelLoad{
			{Kernel: "a", E: a, GapSW: 2},
			{Kernel: "b", E: b, GapSW: 3},
			{Kernel: "c", E: int64(3 + i%2), GapSW: 5},
			{Kernel: "d", E: 1, GapSW: 4},
		}})
	}
	return app, tr
}

// runScriptPair steps an untraced and an observed (per-execution) run of
// the script in lockstep and checks that both clocks agree after every
// Step and that the reports and every observation are equal. It returns
// the untraced stepper.
func runScriptPair(t *testing.T, name string, fast, slow *scriptRTS) *Stepper {
	t.Helper()
	app, tr := scriptWorld(t)
	fs, err := NewStepper(app, tr, fast, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := NewStepper(app, tr, slow, Options{Observer: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	for !fs.Done() {
		if err := fs.Step(); err != nil {
			t.Fatal(err)
		}
		if err := ss.Step(); err != nil {
			t.Fatal(err)
		}
		if fs.Now() != ss.Now() || fast.ctrl.Now() != slow.ctrl.Now() {
			t.Fatalf("%s: clocks %d/%d (stepper/controller), per-execution %d/%d",
				name, fs.Now(), fast.ctrl.Now(), ss.Now(), slow.ctrl.Now())
		}
	}
	if !reflect.DeepEqual(fs.Finish(), ss.Finish()) {
		t.Errorf("%s: reports differ:\n%+v\n%+v", name, fs.Finish(), ss.Finish())
	}
	if !reflect.DeepEqual(fast.obsv, slow.obsv) {
		t.Errorf("%s: observations differ:\n%+v\n%+v", name, fast.obsv, slow.obsv)
	}
	return fs
}

// TestFastForwardClosedForm checks the closed form against the
// per-execution loop: reports, every observation handed to the runtime
// system and both clocks must match. Kernel d executes once,
// mid-iteration, after the others hold verdicts leased Forever; bumping
// the version there must revoke their leases.
func TestFastForwardClosedForm(t *testing.T) {
	for _, bumpOn := range []ise.KernelID{"", "a", "d"} {
		fast, slow := newScriptRTS(t, bumpOn), newScriptRTS(t, bumpOn)
		runScriptPair(t, "bump on "+string(bumpOn), fast, slow)
		if fast.execs >= slow.execs {
			t.Errorf("bump on %q: fast run made %d Execute calls, per-execution run %d", bumpOn, fast.execs, slow.execs)
		}
	}
}

// leaseReplay is what the lease and window rules predict for an untraced
// run of the script, replayed over the calls of its observed run (which
// calls Execute for every execution, in schedule order).
type leaseReplay struct {
	calls  []scriptCall // the Execute calls the untraced run must make
	walked int64        // the executions it must walk one by one

	reused, renewed, exact, revoked int
	// Window coverage: a renewal walked mid-chunk after a window (a
	// window ending mid-chunk); a window attempt blocked only because a
	// stretch's last start lands exactly on Until; a window, not to the
	// iteration's end, holding a kernel's last execution; and a window
	// attempt blocked only by a kernel not yet started in the iteration.
	midChunk, exactAtBoundary, lastInside, notStarted int
}

// replayLeases replays the lease and window rules over an observed run's
// calls. From position p, a window covers the executions up to the
// farthest chunk boundary b > p such that every kernel in them holds a
// lease and the start of execution b−1 falls before the earliest of their
// Untils; its executions reuse their leases. The replay tries one at the
// iteration's start, at every boundary and after every call that grants a
// lease; in between, every execution is walked: it reuses its kernel's
// lease if it starts before Until and calls Execute otherwise. The first
// execution of a kernel in an iteration takes no lease, every later call
// takes lease(now), and the first call of kernel bumpOn revokes every
// lease.
func replayLeases(calls []scriptCall, bumpOn ise.KernelID, lease func(arch.Cycles) arch.Cycles) leaseReplay {
	var r leaseReplay
	for len(calls) > 0 {
		n := 1
		for n < len(calls) && calls[n].iter == calls[0].iter {
			n++
		}
		it := calls[:n]
		calls = calls[n:]
		last := map[ise.KernelID]int{}
		for p, c := range it {
			last[c.k] = p
		}
		seen := map[ise.KernelID]bool{}
		until, held := map[ise.KernelID]arch.Cycles{}, map[ise.KernelID]arch.Cycles{}
		// window returns the farthest boundary a window from p reaches
		// (p if none), scanning the boundaries in order: a stretch that
		// fits holds only stretches that fit.
		window := func(p int) int {
			q := p
			for b := p - p%trace.Stride + trace.Stride; ; b += trace.Stride {
				b = min(b, n)
				lim, started := ecu.Forever, ecu.Forever
				fresh := false
				for _, c := range it[p:b] {
					lim = min(lim, until[c.k])
					if seen[c.k] {
						started = min(started, until[c.k])
					} else {
						fresh = true
					}
				}
				end := it[b-1].now
				if end >= lim {
					if end == lim {
						r.exactAtBoundary++
					}
					if fresh && end < started {
						r.notStarted++
					}
					return q
				}
				if q = b; q == n {
					return q
				}
			}
		}
		skipped := false
		for p := 0; p < n; {
			if q := window(p); q > p {
				for i, c := range it[p:q] {
					if last[c.k] == p+i && q < n {
						r.lastInside++
					}
				}
				r.reused += q - p
				p, skipped = q, true
				continue
			}
			for stop := min(p-p%trace.Stride+trace.Stride, n); p < stop; {
				c := it[p]
				p++
				r.walked++
				first := !seen[c.k]
				seen[c.k] = true
				if c.now < until[c.k] {
					r.reused++
					continue
				}
				if u := until[c.k]; u > 0 {
					r.renewed++
					if c.now == u {
						r.exact++
					}
					if skipped && (p-1)%trace.Stride > 0 {
						r.midChunk++
					}
				}
				if c.now < held[c.k] {
					r.revoked++
				}
				r.calls = append(r.calls, c)
				if first && c.k == bumpOn {
					until = map[ise.KernelID]arch.Cycles{}
				}
				until[c.k], held[c.k] = 0, 0
				if !first {
					until[c.k] = lease(c.now)
					held[c.k] = until[c.k]
				}
				if until[c.k] > c.now {
					break
				}
			}
			skipped = false
		}
	}
	return r
}

// TestLeaseBoundaries checks the lease and window rules execution by
// execution. The script leases each verdict until the next multiple of
// window, so leases run out mid-iteration and mid-chunk: an untraced run
// must reuse the verdict for every start before Until, call Execute again
// at the first start at or after it, and skip exactly the stretches whose
// last start falls before the Until of every kernel in them. A zero Until
// is no lease, and a version bump mid-iteration (kernel d) revokes every
// lease. The expected calls and walked executions are replayed from the
// observed run, which calls Execute for every execution, and both runs
// must agree on clocks, reports and observations.
func TestLeaseBoundaries(t *testing.T) {
	// With this window one start lands exactly on its lease's Until, one
	// chunk's last start lands exactly on the Until that blocks it, and
	// the bump on d revokes leases that would still hold.
	const window = 1391
	next := func(now arch.Cycles) arch.Cycles { return now - now%window + window }
	none := func(arch.Cycles) arch.Cycles { return 0 }
	forever := func(arch.Cycles) arch.Cycles { return ecu.Forever }
	for _, sc := range []struct {
		name   string
		bumpOn ise.KernelID
		lease  func(arch.Cycles) arch.Cycles
	}{
		{"window", "", next},
		{"window/bump on d", "d", next},
		{"zero", "", none},
		{"zero/bump on a", "a", none},
		{"forever/bump on d", "d", forever},
	} {
		fast, slow := newScriptRTS(t, sc.bumpOn), newScriptRTS(t, sc.bumpOn)
		fast.lease, slow.lease = sc.lease, sc.lease
		fs := runScriptPair(t, sc.name, fast, slow)

		r := replayLeases(slow.calls, sc.bumpOn, sc.lease)
		t.Logf("%s: %d Execute calls, %d walked for %d executions: %d reused, %d renewed (%d exactly at Until), %d revoked; "+
			"windows: %d ending mid-chunk, %d blocked exactly at Until, %d holding a last execution, %d before a first one",
			sc.name, len(fast.calls), fs.Walked(), len(slow.calls), r.reused, r.renewed, r.exact, r.revoked,
			r.midChunk, r.exactAtBoundary, r.lastInside, r.notStarted)
		if !reflect.DeepEqual(fast.calls, r.calls) {
			t.Errorf("%s: Execute calls\n%v\nwant\n%v", sc.name, fast.calls, r.calls)
		}
		if fs.Walked() != r.walked {
			t.Errorf("%s: walked %d executions one by one, want %d", sc.name, fs.Walked(), r.walked)
		}
		leased := sc.lease(1) > 0
		switch {
		case leased && r.walked == int64(len(slow.calls)):
			t.Errorf("%s: no chunk was skipped", sc.name)
		case !leased && len(fast.calls) != len(slow.calls):
			t.Errorf("%s: zero Until: %d Execute calls for %d executions", sc.name, len(fast.calls), len(slow.calls))
		case sc.bumpOn != "" && leased && r.revoked == 0:
			t.Errorf("%s: the bump revoked no lease", sc.name)
		case sc.name == "window" && (r.reused == 0 || r.renewed == 0 || r.exact == 0):
			t.Errorf("%s: the script exercises no lease boundary", sc.name)
		case sc.name == "window" && (r.midChunk == 0 || r.exactAtBoundary == 0 || r.lastInside == 0 || r.notStarted == 0):
			t.Errorf("%s: the script misses a window boundary", sc.name)
		}
	}
}
