package mpu

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// This file keeps the map-keyed predictor that preceded per-instruction
// sites, unchanged but for its names, as the reference that
// TestPredictorMatchesReference drives the site-based Predictor against.

// newRefPredictor builds the reference with the same configuration as a
// Predictor made by New(opts...).
func newRefPredictor(opts ...Option) *refPredictor {
	cfg := New(opts...)
	p := &refPredictor{
		alpha:     cfg.alpha,
		enabled:   cfg.enabled,
		timing:    cfg.timing,
		kind:      cfg.kind,
		state:     make(map[refKey]*refEntry),
		disrupted: make(map[string]bool),
		issued:    make(map[refKey]int64),
	}
	switch p.kind {
	case KindPhase:
		p.phases = make(map[string]*refPhaseTbl)
	case KindDecay:
		p.blend = make(map[refKey]*refBlendEntry)
	}
	return p
}

// refPredictor is the MPU forecast store. The zero value is not usable; use New.
type refPredictor struct {
	// alpha is the error back-propagation learning rate: the fraction of
	// the forecast error folded back into the prediction after each
	// functional-block iteration. The decay predictor reuses it as its
	// slow-average rate.
	alpha float64
	// enabled gates the correction (ablation switch); when disabled the
	// refPredictor passes the static profile forecasts through unchanged.
	enabled bool
	// timing gates the TF/TB correction. Execution counts are always
	// corrected when enabled; the inter-execution timing observed under
	// accelerated execution differs wildly from the profile values, and
	// folding it back can destabilise selection.
	timing bool
	// kind selects the forecast-correction algorithm.
	kind Kind

	state  map[refKey]*refEntry      // back-propagation state
	phases map[string]*refPhaseTbl   // per-phase history tables (KindPhase)
	blend  map[refKey]*refBlendEntry // fast/slow EWMA pairs (KindDecay)

	// disrupted marks trigger-instruction keys whose pending observations
	// must be discarded: a fabric fault mid-iteration perturbs the
	// monitored timings in a way that says nothing about the workload. The
	// mark lives until the iteration it taints is over — BlockEnd consumes
	// it at the discard site; pulling the next iteration's forecasts early
	// (a pipelined driver) must not launder the tainted observations in.
	disrupted map[string]bool

	// issued remembers the last execution-count forecast handed out per
	// (key, kernel), so the matching observation can be scored.
	issued  map[refKey]int64
	errTot  ErrorStats
	errKeys map[string]*ErrorStats
}

type refKey struct {
	block  string
	kernel ise.KernelID
}

type refEntry struct {
	e  float64
	tf float64
	tb float64
}

// fold moves the entry toward the observation at rate a.
func (en *refEntry) fold(a float64, obs Observation) {
	en.e += a * (float64(obs.E) - en.e)
	en.tf += a * (float64(obs.TF) - en.tf)
	en.tb += a * (float64(obs.TB) - en.tb)
}

// apply writes the entry's values into the trigger (counts always, timing
// only when tracked).
func (en *refEntry) apply(t ise.Trigger, timing bool) ise.Trigger {
	t.E = int64(en.e + 0.5)
	if timing {
		t.TF = arch.Cycles(en.tf + 0.5)
		t.TB = arch.Cycles(en.tb + 0.5)
	}
	return t
}

type refPhaseTbl struct {
	regimes []*refRegime
	cur     *refRegime
	clock   int64
	pending []refPendingObs
}

type refRegime struct {
	vals map[ise.KernelID]*refEntry
	used int64
}

type refPendingObs struct {
	obs  Observation
	prof ise.Trigger
}

type refBlendEntry struct {
	fast, slow       refEntry
	errFast, errSlow float64
}

// Forecast corrects the profile trigger of a kernel in a block with the
// MPU's learned state. On first sight (or when disabled) the profile values
// pass through unchanged.
func (p *refPredictor) Forecast(block string, t ise.Trigger) ise.Trigger {
	if !p.enabled {
		return t
	}
	switch p.kind {
	case KindPhase:
		pt := p.phases[block]
		if pt == nil || pt.cur == nil {
			return t
		}
		en, ok := pt.cur.vals[t.Kernel]
		if !ok {
			return t
		}
		return en.apply(t, p.timing)
	case KindDecay:
		en, ok := p.blend[refKey{block, t.Kernel}]
		if !ok {
			return t
		}
		// Weight each average by the other's recent error: the one that
		// has been wrong lately contributes less.
		w := 0.5
		if denom := en.errFast + en.errSlow; denom > 0 {
			w = en.errSlow / denom
		}
		t.E = int64(w*en.fast.e + (1-w)*en.slow.e + 0.5)
		if p.timing {
			t.TF = arch.Cycles(w*en.fast.tf + (1-w)*en.slow.tf + 0.5)
			t.TB = arch.Cycles(w*en.fast.tb + (1-w)*en.slow.tb + 0.5)
		}
		return t
	default:
		en, ok := p.state[refKey{block, t.Kernel}]
		if !ok {
			return t
		}
		return en.apply(t, p.timing)
	}
}

// ForecastAll corrects a whole trigger instruction and records the issued
// execution-count forecasts for error accounting, so the iteration's
// observations can be scored against what the selector actually saw.
func (p *refPredictor) ForecastAll(block string, ts []ise.Trigger) []ise.Trigger {
	out := make([]ise.Trigger, len(ts))
	for i, t := range ts {
		out[i] = p.Forecast(block, t)
		if p.enabled {
			p.issued[refKey{block, t.Kernel}] = out[i].E
		}
	}
	return out
}

// NoteDisruption tells the MPU that a fabric fault disturbed the current
// iteration of the trigger instruction: the observations delivered at its
// block end reflect executions stalled by dying containers, not workload
// behaviour, and folding them back would poison the learned forecasts. The
// mark is consumed by BlockEnd — the end of the iteration it taints — not
// by the next forecast pull, so a driver that pre-fetches the next
// iteration's forecasts cannot launder the tainted observations in.
func (p *refPredictor) NoteDisruption(block string) {
	if p.enabled {
		p.disrupted[block] = true
	}
}

// Disrupted reports whether the key's pending observations are marked for
// discard (tests and diagnostics).
func (p *refPredictor) Disrupted(block string) bool { return p.disrupted[block] }

// Observe folds the monitored values of one kernel of a completed block
// iteration back into the forecasts and scores the issued forecast against
// the observation. It returns the absolute execution-count error and
// whether the observation was scored; disrupted or disabled observations
// are discarded unscored. The first observation seeds the state from the
// profile trigger that was used.
//
// The caller signals the end of the iteration with BlockEnd, which consumes
// a pending disruption mark and lets the phase predictor match the
// iteration's observation vector against its regime table.
func (p *refPredictor) Observe(block string, profile ise.Trigger, obs Observation) (absErr int64, scored bool) {
	if !p.enabled || p.disrupted[block] {
		return 0, false
	}
	k := refKey{block, obs.Kernel}
	if iss, ok := p.issued[k]; ok {
		absErr = iss - obs.E
		if absErr < 0 {
			absErr = -absErr
		}
		scored = true
		p.errTot.add(absErr, obs.E)
		if p.errKeys == nil {
			p.errKeys = make(map[string]*ErrorStats)
		}
		ks := p.errKeys[block]
		if ks == nil {
			ks = &ErrorStats{}
			p.errKeys[block] = ks
		}
		ks.add(absErr, obs.E)
	}
	switch p.kind {
	case KindPhase:
		pt := p.phases[block]
		if pt == nil {
			pt = &refPhaseTbl{}
			p.phases[block] = pt
		}
		pt.pending = append(pt.pending, refPendingObs{obs: obs, prof: profile})
	case KindDecay:
		en, ok := p.blend[k]
		if !ok {
			seed := refEntry{e: float64(profile.E), tf: float64(profile.TF), tb: float64(profile.TB)}
			en = &refBlendEntry{fast: seed, slow: seed}
			p.blend[k] = en
		}
		ef, es := float64(obs.E)-en.fast.e, float64(obs.E)-en.slow.e
		if ef < 0 {
			ef = -ef
		}
		if es < 0 {
			es = -es
		}
		en.errFast += errDecay * (ef - en.errFast)
		en.errSlow += errDecay * (es - en.errSlow)
		en.fast.fold(fastAlpha, obs)
		en.slow.fold(p.alpha, obs)
	default:
		en, ok := p.state[k]
		if !ok {
			en = &refEntry{e: float64(profile.E), tf: float64(profile.TF), tb: float64(profile.TB)}
			p.state[k] = en
		}
		en.fold(p.alpha, obs)
	}
	return absErr, scored
}

// BlockEnd marks the end of the trigger instruction's current iteration:
// it consumes a pending disruption mark (every observation of the tainted
// iteration has been delivered and discarded by now) and, for the phase
// predictor, matches the iteration's buffered observation vector against
// the learned regimes. Runtime systems call it once per OnBlockEnd, after
// the iteration's Observes.
func (p *refPredictor) BlockEnd(block string) {
	delete(p.disrupted, block)
	if p.kind != KindPhase || !p.enabled {
		return
	}
	pt := p.phases[block]
	if pt == nil || len(pt.pending) == 0 {
		return
	}
	pt.clock++
	best, bestD := (*refRegime)(nil), matchThreshold
	for _, r := range pt.regimes {
		if d := pt.distance(r); d <= bestD {
			best, bestD = r, d
		}
	}
	if best == nil {
		best = pt.newRegime()
	}
	for _, po := range pt.pending {
		en, ok := best.vals[po.obs.Kernel]
		if !ok {
			en = &refEntry{e: float64(po.prof.E), tf: float64(po.prof.TF), tb: float64(po.prof.TB)}
			best.vals[po.obs.Kernel] = en
		}
		en.fold(phaseAlpha, po.obs)
	}
	best.used = pt.clock
	pt.cur = best
	pt.pending = pt.pending[:0]
}

// distance is the relative L1 distance between the pending observation
// vector and the regime's predicted execution counts. Kernels the regime
// has not seen yet contribute nothing — a regime is judged on what it
// claims to know.
func (pt *refPhaseTbl) distance(r *refRegime) float64 {
	var num, den float64
	seen := false
	for _, po := range pt.pending {
		en, ok := r.vals[po.obs.Kernel]
		if !ok {
			continue
		}
		seen = true
		d := float64(po.obs.E) - en.e
		if d < 0 {
			d = -d
		}
		num += d
		o := float64(po.obs.E)
		if en.e > o {
			o = en.e
		}
		if o < 1 {
			o = 1
		}
		den += o
	}
	if !seen {
		return matchThreshold + 1
	}
	return num / den
}

// newRegime founds a regime for an unseen execution phase, evicting the
// least recently used one beyond the table bound.
func (pt *refPhaseTbl) newRegime() *refRegime {
	r := &refRegime{vals: make(map[ise.KernelID]*refEntry), used: pt.clock}
	if len(pt.regimes) < maxRegimes {
		pt.regimes = append(pt.regimes, r)
		return r
	}
	lru := 0
	for i, cand := range pt.regimes {
		if cand.used < pt.regimes[lru].used {
			lru = i
		}
	}
	pt.regimes[lru] = r
	return r
}

// Errors returns a snapshot of the forecast-error accounting.
func (p *refPredictor) Errors() ErrorReport {
	rep := ErrorReport{Predictor: string(p.kind), Total: p.errTot}
	if len(p.errKeys) > 0 {
		rep.Keys = make(map[string]ErrorStats, len(p.errKeys))
		for k, v := range p.errKeys {
			rep.Keys[k] = *v
		}
	}
	return rep
}

// Reset clears all learned state, disruption marks and error accounting.
func (p *refPredictor) Reset() {
	p.state = make(map[refKey]*refEntry)
	p.disrupted = make(map[string]bool)
	p.issued = make(map[refKey]int64)
	p.errTot = ErrorStats{}
	p.errKeys = nil
	switch p.kind {
	case KindPhase:
		p.phases = make(map[string]*refPhaseTbl)
	case KindDecay:
		p.blend = make(map[refKey]*refBlendEntry)
	}
}

// Len returns the number of (block, kernel) forecasts currently tracked.
func (p *refPredictor) Len() int {
	switch p.kind {
	case KindPhase:
		n := 0
		for _, pt := range p.phases {
			kernels := map[ise.KernelID]bool{}
			for _, r := range pt.regimes {
				for k := range r.vals {
					kernels[k] = true
				}
			}
			n += len(kernels)
		}
		return n
	case KindDecay:
		return len(p.blend)
	default:
		return len(p.state)
	}
}

// TestPredictorMatchesReference drives the site-based Predictor and the
// map-keyed reference through the same random operation sequences — every
// kind, with and without timing tracking, plain and phase-labelled keys —
// and compares forecasts, error reports, Len and disruption marks after
// every step.
func TestPredictorMatchesReference(t *testing.T) {
	const seed = 2025
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewPCG(seed, seed))
	keys := []string{"b0", "b1", "b0#I", "b0#P", "b1#P"}
	kernels := []ise.KernelID{"k0", "k1", "k2", "k3", "k4"}
	randTrigger := func(k ise.KernelID) ise.Trigger {
		return ise.Trigger{Kernel: k, E: rng.Int64N(400), TF: arch.Cycles(rng.Int64N(5000)), TB: arch.Cycles(rng.Int64N(300))}
	}
	randTriggers := func() []ise.Trigger {
		perm := rng.Perm(len(kernels))[:1+rng.IntN(len(kernels))]
		ts := make([]ise.Trigger, len(perm))
		for i, j := range perm {
			ts[i] = randTrigger(kernels[j])
		}
		return ts
	}
	configs := [][]Option{
		nil,
		{WithTimingTracking()},
		{WithPredictor(KindPhase)},
		{WithPredictor(KindPhase), WithTimingTracking()},
		{WithPredictor(KindDecay)},
		{WithPredictor(KindDecay), WithTimingTracking(), WithAlpha(0.6)},
		{Disabled()},
	}
	var ops [6]int
	for run := 0; run < 140; run++ {
		opts := configs[run%len(configs)]
		got, want := New(opts...), newRefPredictor(opts...)
		// Each key replays one profile shape most of the time, the way a
		// trigger instruction does, so learned state gets reused.
		profiles := map[string][]ise.Trigger{}
		for _, k := range keys {
			profiles[k] = randTriggers()
		}
		for step := 0; step < 120; step++ {
			key := keys[rng.IntN(len(keys))]
			prof := profiles[key]
			if rng.IntN(8) == 0 {
				prof = randTriggers()
			}
			var what string
			switch op := rng.IntN(20); {
			case op < 6:
				what = "ForecastAll"
				ops[0]++
				g, w := got.ForecastAll(key, prof), want.ForecastAll(key, prof)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("run %d step %d: ForecastAll(%s) = %v, reference %v", run, step, key, g, w)
				}
			case op < 8:
				what = "Forecast"
				ops[1]++
				tr := prof[rng.IntN(len(prof))]
				if g, w := got.Forecast(key, tr), want.Forecast(key, tr); g != w {
					t.Fatalf("run %d step %d: Forecast(%s) = %v, reference %v", run, step, key, g, w)
				}
			case op < 15:
				what = "Observe+BlockEnd"
				ops[2]++
				for _, j := range rng.Perm(len(prof)) {
					if rng.IntN(6) == 0 {
						continue
					}
					scale := []int64{1, 1, 2, 5}[rng.IntN(4)]
					o := Observation{Kernel: prof[j].Kernel, E: scale * rng.Int64N(300), TF: arch.Cycles(rng.Int64N(4000)), TB: arch.Cycles(rng.Int64N(200))}
					ge, gs := got.Observe(key, prof[j], o)
					we, ws := want.Observe(key, prof[j], o)
					if ge != we || gs != ws {
						t.Fatalf("run %d step %d: Observe(%s) = %d,%v, reference %d,%v", run, step, key, ge, gs, we, ws)
					}
				}
				if rng.IntN(5) != 0 {
					got.BlockEnd(key)
					want.BlockEnd(key)
				}
			case op < 18:
				what = "NoteDisruption"
				ops[3]++
				got.NoteDisruption(key)
				want.NoteDisruption(key)
			case op < 19:
				what = "BlockEnd"
				ops[4]++
				got.BlockEnd(key)
				want.BlockEnd(key)
			default:
				if rng.IntN(4) == 0 {
					what = "Reset"
					ops[5]++
					got.Reset()
					want.Reset()
				}
			}
			if g, w := got.Errors(), want.Errors(); !reflect.DeepEqual(g, w) {
				t.Fatalf("run %d step %d (%s): Errors = %+v, reference %+v", run, step, what, g, w)
			}
			if g, w := got.Len(), want.Len(); g != w {
				t.Fatalf("run %d step %d (%s): Len = %d, reference %d", run, step, what, g, w)
			}
			for _, k := range keys {
				if g, w := got.Disrupted(k), want.Disrupted(k); g != w {
					t.Fatalf("run %d step %d (%s): Disrupted(%s) = %v, reference %v", run, step, what, k, g, w)
				}
			}
		}
	}
	t.Logf("ops: ForecastAll %d, Forecast %d, Observe %d, NoteDisruption %d, BlockEnd %d, Reset %d",
		ops[0], ops[1], ops[2], ops[3], ops[4], ops[5])
}
