package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/exp"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/sim"
	"mrts/internal/vfabric"
	"mrts/internal/workload"
)

var (
	ffWorkload = workload.Small()
	ffPhased   = workload.MustBuild(workload.Options{Seed: 3, Phased: &workload.PhasedOptions{Rounds: 3}})
	ffPolicies = append([]exp.Policy{exp.PolicyRISC}, exp.Fig8Policies...)
	ffFabrics  = []arch.Config{{NCG: 1}, {NPRC: 1}, {NPRC: 1, NCG: 1}, {NPRC: 2, NCG: 1}, {NPRC: 2, NCG: 2}, {NPRC: 4, NCG: 3}}
)

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newPolicy(t *testing.T, p exp.Policy, cfg arch.Config, w *workload.Result) core.RuntimeSystem {
	t.Helper()
	rts, err := exp.NewPolicy(p, cfg, w.App, w.Trace)
	if err != nil {
		t.Fatal(err)
	}
	return rts
}

// TestFastForwardMatchesPerExecution is the differential guard of the
// steady-tail fast-forward. An untraced run takes the closed-form path; an
// observed run must call Execute for every execution. For RISC and every
// Fig. 8 policy over a spread of fabrics, on a plain, a reserved and a
// phased workload, the two are stepped in lockstep: both clocks (stepper
// and controller) and the MPU's whole learned state must agree after every
// Step, and the reports must be byte-identical JSON. The MPU state is what
// every later forecast is issued from; it also holds the learned TB of
// each (block, kernel), which the default count-only forecasts do not
// apply, so a closed-form window that books a wrong last end shows here
// even when no report field moves. Two-tenant hypervisor runs, which
// repartition between Steps, must produce byte-identical reports too.
func TestFastForwardMatchesPerExecution(t *testing.T) {
	type scenario struct {
		name string
		w    *workload.Result
		res  bool
	}
	scenarios := []scenario{{"plain", ffWorkload, false}, {"reserved", ffWorkload, true}, {"phased", ffPhased, false}}
	for _, p := range ffPolicies {
		// Static policies configure their whole selection at reset, so no
		// reservation or migrating hypervisor can take fabric from them;
		// they run unreserved and under static partitioning instead.
		static := p == exp.PolicyRISC || p == exp.PolicyOffline || p == exp.PolicyMorpheus
		for _, cfg := range ffFabrics {
			for _, sc := range scenarios {
				t.Run(fmt.Sprintf("%s/%dx%d/%s", p, cfg.NPRC, cfg.NCG, sc.name), func(t *testing.T) {
					var opts sim.Options
					if sc.res && !static {
						opts.ReservePRC, opts.ReserveCG = min(1, cfg.NPRC), min(1, cfg.NCG)
					}
					fast, err := sim.NewStepper(sc.w.App, sc.w.Trace, newPolicy(t, p, cfg, sc.w), opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Observer = obs.New()
					slow, err := sim.NewStepper(sc.w.App, sc.w.Trace, newPolicy(t, p, cfg, sc.w), opts)
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; !fast.Done(); i++ {
						if err := fast.Step(); err != nil {
							t.Fatal(err)
						}
						if err := slow.Step(); err != nil {
							t.Fatal(err)
						}
						fc, slc := fast.RTS().Controller().Now(), slow.RTS().Controller().Now()
						if fast.Now() != slow.Now() || fc != slc {
							t.Fatalf("iteration %d: fast clocks %d/%d (stepper/controller), per-execution %d/%d",
								i, fast.Now(), fc, slow.Now(), slc)
						}
						if fp := predictorOf(fast.RTS()); fp != nil && !reflect.DeepEqual(fp, predictorOf(slow.RTS())) {
							t.Fatalf("iteration %d: the MPU state differs from the per-execution run's", i)
						}
					}
					a, b := mustMarshal(t, fast.Finish()), mustMarshal(t, slow.Finish())
					if !bytes.Equal(a, b) {
						t.Errorf("fast-forwarded report differs:\n%s\n%s", a, b)
					}
				})
			}
			t.Run(fmt.Sprintf("%s/%dx%d/vfabric", p, cfg.NPRC, cfg.NCG), func(t *testing.T) {
				tenants := func() []vfabric.Tenant {
					var ts []vfabric.Tenant
					for _, w := range []*workload.Result{ffWorkload, ffPhased} {
						ts = append(ts, vfabric.Tenant{App: w.App, Trace: w.Trace, Build: func(c arch.Config) (core.RuntimeSystem, error) {
							return exp.NewPolicy(p, c, w.App, w.Trace)
						}})
					}
					return ts
				}
				opts := vfabric.Options{Physical: cfg, Migrate: !static}
				fast, err := vfabric.Run(tenants(), opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Observer = obs.New()
				slow, err := vfabric.Run(tenants(), opts)
				if err != nil {
					t.Fatal(err)
				}
				a, b := mustMarshal(t, fast), mustMarshal(t, slow)
				if !bytes.Equal(a, b) {
					t.Errorf("fast-forwarded hypervisor report differs:\n%s\n%s", a, b)
				}
			})
		}
	}
}

// predictorOf returns the runtime system's MPU, or nil for policies
// without one.
func predictorOf(rts core.RuntimeSystem) *mpu.Predictor {
	if p, ok := rts.(interface{ Predictor() *mpu.Predictor }); ok {
		return p.Predictor()
	}
	return nil
}

// countingRTS counts Execute calls and forwards everything else.
type countingRTS struct {
	core.RuntimeSystem
	calls int64
}

func (c *countingRTS) Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision {
	c.calls++
	return c.RuntimeSystem.Execute(k, now)
}

// TestFastForwardSkipsExecute pins the mechanism, so a silent fall-back to
// the per-execution loop cannot pass the identity tests. An untraced run
// reuses every leased verdict and charges leased stretches in closed
// form, so it calls Execute only where a verdict may change: the
// Offline-optimal run at 4/3 settles within the first executions of each
// iteration, and mRTS and RISPP-like, which reconfigure at every trigger,
// must still call Execute for under 1% of their executions on the plain
// and the phased workload, and walk under 5% of them one by one. The same
// run with an observer must call Execute for, and walk, every execution.
func TestFastForwardSkipsExecute(t *testing.T) {
	type run struct {
		p   exp.Policy
		cfg arch.Config
	}
	runs := []run{{exp.PolicyOffline, arch.Config{NPRC: 4, NCG: 3}}}
	for _, p := range []exp.Policy{exp.PolicyMRTS, exp.PolicyRISPP} {
		for _, cfg := range []arch.Config{{NPRC: 2, NCG: 1}, {NPRC: 4, NCG: 3}} {
			runs = append(runs, run{p, cfg})
		}
	}
	for _, r := range runs {
		for _, w := range []struct {
			name string
			w    *workload.Result
		}{{"plain", ffWorkload}, {"phased", ffPhased}} {
			for _, observed := range []bool{false, true} {
				rts := &countingRTS{RuntimeSystem: newPolicy(t, r.p, r.cfg, w.w)}
				var opts sim.Options
				if observed {
					opts.Observer = obs.New()
				}
				st, err := sim.NewStepper(w.w.App, w.w.Trace, rts, opts)
				if err != nil {
					t.Fatal(err)
				}
				for !st.Done() {
					if err := st.Step(); err != nil {
						t.Fatal(err)
					}
				}
				rep := st.Finish()
				name := fmt.Sprintf("%s/%dx%d/%s observed=%v", r.p, r.cfg.NPRC, r.cfg.NCG, w.name, observed)
				share := float64(rts.calls) / float64(rep.Executions)
				walked := float64(st.Walked()) / float64(rep.Executions)
				t.Logf("%s: %d Execute calls, %d walked for %d executions (%.4f, %.4f)",
					name, rts.calls, st.Walked(), rep.Executions, share, walked)
				if observed && (rts.calls != rep.Executions || st.Walked() != rep.Executions) {
					t.Errorf("%s: called Execute %d times and walked %d of %d executions, want every one",
						name, rts.calls, st.Walked(), rep.Executions)
				}
				if !observed && share >= 0.01 {
					t.Errorf("%s: called Execute for %.2f%% of executions, want < 1%%", name, 100*share)
				}
				if !observed && walked >= 0.05 {
					t.Errorf("%s: walked %.2f%% of executions one by one, want < 5%%", name, 100*walked)
				}
			}
		}
	}
}
