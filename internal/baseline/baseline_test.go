package baseline

import (
	"reflect"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ecu"
	"mrts/internal/ise"
	"mrts/internal/obs"
	"mrts/internal/sim"
	"mrts/internal/trace"
	"mrts/internal/workload"
)

func smallWorkload(t *testing.T) *workload.Result {
	t.Helper()
	return workload.MustBuild(workload.Options{
		Width: 64, Height: 48, Frames: 4,
	})
}

func TestRISPPLikeHasNoMonoCG(t *testing.T) {
	w := smallWorkload(t)
	r, err := NewRISPPLike(arch.Config{NPRC: 2, NCG: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(w.App, w.Trace, r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModeExecs[ecu.MonoCG] != 0 {
		t.Errorf("RISPP-like used monoCG %d times", rep.ModeExecs[ecu.MonoCG])
	}
	if r.Name() != "RISPP-like" {
		t.Errorf("name = %q", r.Name())
	}
}

func TestOnlineOptimalChargesNoOverhead(t *testing.T) {
	w := smallWorkload(t)
	r, err := NewOnlineOptimal(arch.Config{NPRC: 1, NCG: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(w.App, w.Trace, r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverheadCycles != 0 {
		t.Errorf("online-optimal charged %d overhead cycles", rep.OverheadCycles)
	}
}

func TestMorpheusIsPureGrainAndStatic(t *testing.T) {
	w := smallWorkload(t)
	m, err := NewMorpheus4S(arch.Config{NPRC: 2, NCG: 2}, w.App, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "Morpheus/4S-like" {
		t.Errorf("name = %q", m.Name())
	}
	anySelected := false
	for _, id := range w.App.KernelIDs() {
		e := m.Selected(id)
		if e == nil {
			continue
		}
		anySelected = true
		if g := e.Grain(); g != arch.GrainFG && g != arch.GrainCG {
			t.Errorf("Morpheus selected multi-grained ISE %s (%v)", e.ID, g)
		}
	}
	if !anySelected {
		t.Error("Morpheus selected nothing")
	}

	// Static: a simulation run schedules all reconfigurations at start
	// and never again.
	rep, err := sim.Run(w.App, w.Trace, m)
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Reconfig.FGReconfigs + rep.Reconfig.CGReconfigs
	if total > 4 { // at most the budget, once
		t.Errorf("Morpheus scheduled %d reconfigurations, want at most budget", total)
	}
	if rep.Reconfig.Evictions != 0 {
		t.Errorf("static selection evicted %d data paths", rep.Reconfig.Evictions)
	}
}

func TestMorpheusRespectsBudget(t *testing.T) {
	w := smallWorkload(t)
	for _, cfg := range []arch.Config{{NPRC: 1}, {NCG: 1}, {NPRC: 2, NCG: 1}} {
		m, err := NewMorpheus4S(cfg, w.App, w.Trace)
		if err != nil {
			t.Fatal(err)
		}
		prc, cg := 0, 0
		seen := map[ise.DataPathID]bool{}
		for _, id := range w.App.KernelIDs() {
			e := m.Selected(id)
			if e == nil {
				continue
			}
			for _, d := range e.DataPaths {
				if seen[d.ID] {
					continue
				}
				seen[d.ID] = true
				prc += d.PRCs
				cg += d.CGs
			}
		}
		if prc > cfg.NPRC || cg > cfg.NCG {
			t.Errorf("config %v: selection uses %d/%d", cfg, prc, cg)
		}
	}
}

func TestOfflineOptimalStatic(t *testing.T) {
	w := smallWorkload(t)
	o, err := NewOfflineOptimal(arch.Config{NPRC: 2, NCG: 2}, w.App, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if o.Name() != "Offline-optimal" {
		t.Errorf("name = %q", o.Name())
	}
	rep, err := sim.Run(w.App, w.Trace, o)
	if err != nil {
		t.Fatal(err)
	}
	// No ECU: only full-ISE or RISC executions.
	if rep.ModeExecs[ecu.MonoCG] != 0 || rep.ModeExecs[ecu.Intermediate] != 0 {
		t.Error("offline-optimal must not steer executions")
	}
	if rep.OverheadCycles != 0 {
		t.Error("offline selection has no run-time overhead")
	}
}

func TestOfflineOptimalAtLeastMorpheus(t *testing.T) {
	// With multi-grained ISEs allowed and an exact solver over the same
	// profits, the offline-optimal static selection can never be worse
	// than the Morpheus knapsack restricted to pure-grain ISEs —
	// measured by achievable steady-state profit, which on this static
	// workload maps to execution time.
	w := smallWorkload(t)
	for _, cfg := range []arch.Config{{NPRC: 2, NCG: 2}, {NPRC: 1, NCG: 3}, {NPRC: 3, NCG: 1}} {
		mo, err := NewMorpheus4S(cfg, w.App, w.Trace)
		if err != nil {
			t.Fatal(err)
		}
		off, err := NewOfflineOptimal(cfg, w.App, w.Trace)
		if err != nil {
			t.Fatal(err)
		}
		rm, err := sim.Run(w.App, w.Trace, mo)
		if err != nil {
			t.Fatal(err)
		}
		ro, err := sim.Run(w.App, w.Trace, off)
		if err != nil {
			t.Fatal(err)
		}
		// Allow a tiny tolerance for reconfiguration transients.
		if float64(ro.TotalCycles) > 1.02*float64(rm.TotalCycles) {
			t.Errorf("config %v: offline-optimal (%d) notably slower than Morpheus (%d)",
				cfg, ro.TotalCycles, rm.TotalCycles)
		}
	}
}

func TestStaticRTSZeroBudget(t *testing.T) {
	w := smallWorkload(t)
	m, err := NewMorpheus4S(arch.Config{}, w.App, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(w.App, w.Trace, m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ModeExecs[ecu.Full] != 0 {
		t.Error("zero budget executed accelerated kernels")
	}
	risc, err := sim.RunRISC(w.App, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalCycles != risc.TotalCycles {
		t.Errorf("zero-budget Morpheus (%d) != RISC-mode (%d)", rep.TotalCycles, risc.TotalCycles)
	}
}

func TestStaticRTSResetRecommits(t *testing.T) {
	w := smallWorkload(t)
	m, err := NewMorpheus4S(arch.Config{NPRC: 1, NCG: 1}, w.App, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	m.Reset()
	m.Reset() // must be idempotent
	r1, err := sim.Run(w.App, w.Trace, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sim.Run(w.App, w.Trace, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalCycles != r2.TotalCycles {
		t.Error("static policy not reproducible across runs")
	}
}

// TestStaticObservedTrace checks the decision trace of an observed static
// baseline: after the run marker come the configuration events of the
// commit Reset made at application start, one per scheduled
// reconfiguration, and then one ECU dispatch per execution. The report
// must equal the untraced run's.
func TestStaticObservedTrace(t *testing.T) {
	w := smallWorkload(t)
	cfg := arch.Config{NPRC: 2, NCG: 1}
	for _, build := range []func(arch.Config, *ise.Application, *trace.Trace) (*StaticRTS, error){NewOfflineOptimal, NewMorpheus4S} {
		s, err := build(cfg, w.App, w.Trace)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := sim.Run(w.App, w.Trace, s)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		rep, err := sim.RunOpts(w.App, w.Trace, s, sim.Options{Observer: rec})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep, plain) {
			t.Errorf("%s: observed report differs from the untraced one", s.Name())
		}
		evs := rec.Events()
		if len(evs) == 0 || evs[0].Kind != obs.KindRun {
			t.Fatalf("%s: trace does not open with the run marker", s.Name())
		}
		var configs, dispatches int64
		for i, ev := range evs[1:] {
			switch {
			case ev.Kind == obs.KindConfig:
				if dispatches > 0 || ev.Cycle != 0 || ev.Ready < ev.Latency {
					t.Errorf("%s: event %d: config %+v, want one at application start before any dispatch", s.Name(), i+1, ev)
				}
				if r, ok := s.Controller().ReadyTime(ise.DataPathID(ev.Path)); !ok || r != ev.Ready {
					t.Errorf("%s: config %s ready at %d, controller says %d", s.Name(), ev.Path, ev.Ready, r)
				}
				configs++
			case ev.Kind == obs.KindDispatch:
				if e := s.Selected(ise.KernelID(ev.Kernel)); e != nil && ev.ISE != e.ID {
					t.Errorf("%s: dispatch of %s names ISE %q, want %q", s.Name(), ev.Kernel, ev.ISE, e.ID)
				}
				dispatches++
			default:
				t.Errorf("%s: unexpected event %+v", s.Name(), ev)
			}
		}
		if want := rep.Reconfig.FGReconfigs + rep.Reconfig.CGReconfigs; configs != want || configs == 0 {
			t.Errorf("%s: %d config events, want %d (one per reconfiguration, at least one)", s.Name(), configs, want)
		}
		if dispatches != rep.Executions {
			t.Errorf("%s: %d dispatch events for %d executions", s.Name(), dispatches, rep.Executions)
		}
	}
}

func TestInvalidConfigs(t *testing.T) {
	w := smallWorkload(t)
	if _, err := NewMorpheus4S(arch.Config{NPRC: -1}, w.App, w.Trace); err == nil {
		t.Error("invalid config accepted by Morpheus")
	}
	if _, err := NewOfflineOptimal(arch.Config{NCG: -1}, w.App, w.Trace); err == nil {
		t.Error("invalid config accepted by offline-optimal")
	}
	if _, err := NewRISPPLike(arch.Config{NPRC: -1}); err == nil {
		t.Error("invalid config accepted by RISPP-like")
	}
}
