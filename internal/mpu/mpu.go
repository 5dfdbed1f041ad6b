// Package mpu implements the Monitoring & Prediction Unit of mRTS
// (paper Section 4): it keeps track of the observed kernel execution
// behaviour per functional block and corrects the forecasts embedded in the
// trigger instructions, so the ISE selector works with run-time accurate
// execution counts even when the input data changes.
//
// Three predictors are selectable via WithPredictor:
//
//   - KindBackProp (default): the paper's lightweight error
//     back-propagation update, pred += alpha * (observed - pred). Ideal for
//     content-driven but regular workloads like the H.264 traces.
//   - KindPhase: per-phase history tables. Completed iterations are matched
//     against a bounded set of learned execution regimes; a recurring phase
//     is recalled instantly instead of re-converged to, which wins on
//     abruptly phase-changing control flow (see internal/workload's Phased
//     generator).
//   - KindDecay: exponential-decay blending. A fast and a slow EWMA track
//     each kernel; the forecast blends them weighted by their recent error,
//     so the predictor follows shifts quickly without giving up the slow
//     average's stability within a phase.
//
// The Predictor also keeps forecast-error accounting: every issued
// execution-count forecast is scored against the iteration's monitored
// ground truth, and Errors() reports the absolute-error totals per trigger
// instruction — the surface sim.Report and the decision trace expose so
// mrts-timeline can show where prediction wins or loses.
package mpu

import (
	"fmt"
	"slices"
	"strings"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// Observation is the monitored ground truth of one kernel in one completed
// functional-block iteration: how often it actually executed, the wall-clock
// time from block start to its first execution, and the average wall-clock
// time between consecutive executions.
type Observation struct {
	Kernel ise.KernelID
	E      int64
	TF     arch.Cycles
	TB     arch.Cycles
}

// Kind selects the forecast-correction algorithm of a Predictor.
type Kind string

// Predictor kinds, in presentation order.
const (
	// KindBackProp is the paper's error back-propagation update (default).
	KindBackProp Kind = "backprop"
	// KindPhase keeps per-phase history tables and recalls recurring
	// execution regimes.
	KindPhase Kind = "phase"
	// KindDecay blends a fast and a slow exponentially decaying average by
	// their recent error.
	KindDecay Kind = "decay"
)

// Kinds returns the valid predictor names, in presentation order. It is
// the single predictor-name table shared by the CLIs and the service API.
func Kinds() []string {
	return []string{string(KindBackProp), string(KindPhase), string(KindDecay)}
}

// ParseKind resolves a predictor name; the empty string is the default
// back-propagation predictor. The error lists the valid names.
func ParseKind(name string) (Kind, error) {
	switch Kind(strings.ToLower(name)) {
	case "", KindBackProp:
		return KindBackProp, nil
	case KindPhase:
		return KindPhase, nil
	case KindDecay:
		return KindDecay, nil
	}
	return "", fmt.Errorf("mpu: unknown predictor %q (valid: %s)", name, strings.Join(Kinds(), ", "))
}

// ErrorStats accumulate forecast-error accounting: for every scored
// observation, the absolute difference between the issued execution-count
// forecast and the monitored count.
type ErrorStats struct {
	// Samples counts scored observations (one per kernel per completed,
	// undisrupted iteration).
	Samples int64
	// AbsErrE is the summed absolute execution-count forecast error.
	AbsErrE int64
	// ObsE is the summed observed execution count (the error's scale).
	ObsE int64
}

// MeanAbsE is the mean absolute execution-count error per scored
// observation (0 with no samples).
func (s ErrorStats) MeanAbsE() float64 {
	if s.Samples == 0 {
		return 0
	}
	return float64(s.AbsErrE) / float64(s.Samples)
}

// IsZero reports whether no observation was scored.
func (s ErrorStats) IsZero() bool { return s == ErrorStats{} }

func (s *ErrorStats) add(absErr, obsE int64) {
	s.Samples++
	s.AbsErrE += absErr
	s.ObsE += obsE
}

// ErrorReport is the Predictor's forecast-accuracy summary: totals plus a
// per-trigger-instruction breakdown (keys are the site keys, i.e. "block"
// or "block#phase").
type ErrorReport struct {
	// Predictor is the kind that produced the forecasts.
	Predictor string
	Total     ErrorStats
	// Keys breaks the totals down per trigger-instruction key; nil when
	// nothing was scored.
	Keys map[string]ErrorStats
}

// IsZero reports whether no observation was scored.
func (r ErrorReport) IsZero() bool { return r.Total.IsZero() }

// Predictor is the MPU forecast store. The zero value is not usable; use New.
//
// It keeps one Site per trigger instruction (a "block" or "block#phase"
// key); a site holds the learned state of every kernel the instruction
// forecasts in slices indexed by the kernel's position in the site. The
// string-keyed methods look the site up by key; runtime systems resolve a
// site once and call its methods directly.
type Predictor struct {
	// alpha is the error back-propagation learning rate: the fraction of
	// the forecast error folded back into the prediction after each
	// functional-block iteration. The decay predictor reuses it as its
	// slow-average rate.
	alpha float64
	// enabled gates the correction (ablation switch); when disabled the
	// Predictor passes the static profile forecasts through unchanged.
	enabled bool
	// timing gates the TF/TB correction. Execution counts are always
	// corrected when enabled; the inter-execution timing observed under
	// accelerated execution differs wildly from the profile values, and
	// folding it back can destabilise selection.
	timing bool
	// kind selects the forecast-correction algorithm.
	kind Kind

	sites  map[string]*Site
	errTot ErrorStats
}

// Site is the MPU state of one trigger instruction. Sites survive Reset
// (their state is cleared in place), so a runtime system may keep the
// pointer Predictor.Site returned for the Predictor's lifetime.
type Site struct {
	p   *Predictor
	key string
	// kernels holds the per-kernel state, in first-sight order.
	kernels []kernelState
	// phase is the regime table (KindPhase only).
	phase phaseTbl
	// disrupted marks the site's pending observations for discard: a
	// fabric fault mid-iteration perturbs the monitored timings in a way
	// that says nothing about the workload. The mark lives until the
	// iteration it taints is over — BlockEnd consumes it at the discard
	// site; pulling the next iteration's forecasts early (a pipelined
	// driver) must not launder the tainted observations in.
	disrupted bool
	errs      ErrorStats
}

// kernelState is one kernel's state within a site.
type kernelState struct {
	kernel ise.KernelID
	// bp is the back-propagation state (KindBackProp), valid when hasBP.
	bp    entry
	hasBP bool
	// blend is the fast/slow EWMA pair (KindDecay), valid when hasBlend.
	blend    blendEntry
	hasBlend bool
	// issued is the last execution-count forecast handed out, so the
	// matching observation can be scored; valid when hasIssued.
	issued    int64
	hasIssued bool
}

type entry struct {
	e  float64
	tf float64
	tb float64
}

// fold moves the entry toward the observation at rate a.
func (en *entry) fold(a float64, obs Observation) {
	en.e += a * (float64(obs.E) - en.e)
	en.tf += a * (float64(obs.TF) - en.tf)
	en.tb += a * (float64(obs.TB) - en.tb)
}

// apply writes the entry's values into the trigger (counts always, timing
// only when tracked).
func (en *entry) apply(t ise.Trigger, timing bool) ise.Trigger {
	t.E = int64(en.e + 0.5)
	if timing {
		t.TF = arch.Cycles(en.tf + 0.5)
		t.TB = arch.Cycles(en.tb + 0.5)
	}
	return t
}

// seedEntry is the state a kernel starts from: the profile trigger that
// was used.
func seedEntry(t ise.Trigger) entry {
	return entry{e: float64(t.E), tf: float64(t.TF), tb: float64(t.TB)}
}

// Phase-table tuning. A regime is one learned execution phase of a trigger
// instruction; iterations whose counts sit within matchThreshold relative
// distance of a regime's predictions refine that regime, anything farther
// founds a new one (evicting the least recently used beyond maxRegimes).
const (
	maxRegimes     = 6
	matchThreshold = 0.30
	phaseAlpha     = 0.5
)

type phaseTbl struct {
	regimes []*regime
	cur     *regime
	clock   int64
	pending []pendingObs
}

// regime holds one learned phase: vals[i] is the entry of the site's
// kernel i, valid when known[i].
type regime struct {
	vals  []entry
	known []bool
	used  int64
}

// lookup returns the regime's entry for kernel position i, or nil.
func (r *regime) lookup(i int) *entry {
	if i < len(r.known) && r.known[i] {
		return &r.vals[i]
	}
	return nil
}

type pendingObs struct {
	pos  int
	obs  Observation
	prof ise.Trigger
}

// Decay-blend tuning: the fast average follows shifts within a couple of
// iterations, the slow one (rate alpha) smooths within a phase; errDecay
// is the EWMA rate of the per-average error trackers that weight the blend.
const (
	fastAlpha = 0.8
	errDecay  = 0.5
)

type blendEntry struct {
	fast, slow       entry
	errFast, errSlow float64
}

// Option configures a Predictor.
type Option func(*Predictor)

// WithAlpha sets the error back-propagation rate (default 0.25 — a damped
// correction: forecast noise otherwise oscillates the ISE selection, and
// the reconfiguration churn costs more than the accuracy gains). Values are
// clamped to [0, 1]. The decay predictor uses it as its slow-average rate.
func WithAlpha(a float64) Option {
	return func(p *Predictor) {
		if a < 0 {
			a = 0
		}
		if a > 1 {
			a = 1
		}
		p.alpha = a
	}
}

// Disabled turns the run-time correction off; forecasts stay at their
// profile values. Used by the ablation benchmarks.
func Disabled() Option {
	return func(p *Predictor) { p.enabled = false }
}

// WithTimingTracking also folds the observed wall-clock TF/TB values into
// the forecasts (off by default: only execution counts are corrected).
func WithTimingTracking() Option {
	return func(p *Predictor) { p.timing = true }
}

// WithPredictor selects the forecast-correction algorithm (KindBackProp by
// default). An empty kind keeps the default.
func WithPredictor(k Kind) Option {
	return func(p *Predictor) {
		if k != "" {
			p.kind = k
		}
	}
}

// New creates a Predictor.
func New(opts ...Option) *Predictor {
	p := &Predictor{
		alpha:   0.25,
		enabled: true,
		kind:    KindBackProp,
		sites:   make(map[string]*Site),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Enabled reports whether run-time correction is active.
func (p *Predictor) Enabled() bool { return p.enabled }

// Kind returns the active forecast-correction algorithm.
func (p *Predictor) Kind() Kind { return p.kind }

// Site returns the state of the trigger instruction with the given key,
// creating it on first use.
func (p *Predictor) Site(key string) *Site {
	s := p.sites[key]
	if s == nil {
		s = &Site{p: p, key: key}
		p.sites[key] = s
	}
	return s
}

// Forecast is Site(block).Forecast(t).
func (p *Predictor) Forecast(block string, t ise.Trigger) ise.Trigger {
	return p.Site(block).Forecast(t)
}

// ForecastAll is Site(block).AppendForecasts into a fresh slice.
func (p *Predictor) ForecastAll(block string, ts []ise.Trigger) []ise.Trigger {
	return p.Site(block).AppendForecasts(make([]ise.Trigger, 0, len(ts)), ts)
}

// NoteDisruption is Site(block).NoteDisruption().
func (p *Predictor) NoteDisruption(block string) { p.Site(block).NoteDisruption() }

// Disrupted is Site(block).Disrupted().
func (p *Predictor) Disrupted(block string) bool { return p.Site(block).Disrupted() }

// Observe is Site(block).Observe(profile, obs).
func (p *Predictor) Observe(block string, profile ise.Trigger, obs Observation) (absErr int64, scored bool) {
	return p.Site(block).Observe(profile, obs)
}

// BlockEnd is Site(block).BlockEnd().
func (p *Predictor) BlockEnd(block string) { p.Site(block).BlockEnd() }

// find returns the position of the kernel's state in the site, or -1.
// hint is the kernel's likely position (its index in the trigger or
// observation list), checked first: a trigger instruction lists its
// kernels in the same order every iteration.
func (s *Site) find(id ise.KernelID, hint int) int {
	if hint >= 0 && hint < len(s.kernels) && s.kernels[hint].kernel == id {
		return hint
	}
	for i := range s.kernels {
		if s.kernels[i].kernel == id {
			return i
		}
	}
	return -1
}

// slot returns the position of the kernel's state, adding it on first
// sight.
func (s *Site) slot(id ise.KernelID, hint int) int {
	if i := s.find(id, hint); i >= 0 {
		return i
	}
	s.kernels = append(s.kernels, kernelState{kernel: id})
	return len(s.kernels) - 1
}

// Forecast corrects the profile trigger of a kernel with the site's
// learned state. On first sight (or when disabled) the profile values pass
// through unchanged.
func (s *Site) Forecast(t ise.Trigger) ise.Trigger { return s.forecast(t, -1) }

func (s *Site) forecast(t ise.Trigger, hint int) ise.Trigger {
	p := s.p
	if !p.enabled {
		return t
	}
	switch p.kind {
	case KindPhase:
		if s.phase.cur == nil {
			return t
		}
		i := s.find(t.Kernel, hint)
		if i < 0 {
			return t
		}
		en := s.phase.cur.lookup(i)
		if en == nil {
			return t
		}
		return en.apply(t, p.timing)
	case KindDecay:
		i := s.find(t.Kernel, hint)
		if i < 0 || !s.kernels[i].hasBlend {
			return t
		}
		en := &s.kernels[i].blend
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
		i := s.find(t.Kernel, hint)
		if i < 0 || !s.kernels[i].hasBP {
			return t
		}
		return s.kernels[i].bp.apply(t, p.timing)
	}
}

// AppendForecasts corrects a whole trigger instruction, appending the
// forecasts to dst, and records the issued execution-count forecasts for
// error accounting, so the iteration's observations can be scored against
// what the selector actually saw.
func (s *Site) AppendForecasts(dst, ts []ise.Trigger) []ise.Trigger {
	s.kernels = slices.Grow(s.kernels, max(0, len(ts)-len(s.kernels)))
	for i, t := range ts {
		f := s.forecast(t, i)
		dst = append(dst, f)
		if s.p.enabled {
			k := &s.kernels[s.slot(t.Kernel, i)]
			k.issued, k.hasIssued = f.E, true
		}
	}
	return dst
}

// NoteDisruption tells the MPU that a fabric fault disturbed the current
// iteration of the trigger instruction: the observations delivered at its
// block end reflect executions stalled by dying containers, not workload
// behaviour, and folding them back would poison the learned forecasts. The
// mark is consumed by BlockEnd — the end of the iteration it taints — not
// by the next forecast pull, so a driver that pre-fetches the next
// iteration's forecasts cannot launder the tainted observations in.
func (s *Site) NoteDisruption() {
	if s.p.enabled {
		s.disrupted = true
	}
}

// Disrupted reports whether the site's pending observations are marked for
// discard (tests and diagnostics).
func (s *Site) Disrupted() bool { return s.disrupted }

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
func (s *Site) Observe(profile ise.Trigger, obs Observation) (absErr int64, scored bool) {
	p := s.p
	if !p.enabled || s.disrupted {
		return 0, false
	}
	i := s.slot(obs.Kernel, -1)
	k := &s.kernels[i]
	if k.hasIssued {
		absErr = k.issued - obs.E
		if absErr < 0 {
			absErr = -absErr
		}
		scored = true
		p.errTot.add(absErr, obs.E)
		s.errs.add(absErr, obs.E)
	}
	switch p.kind {
	case KindPhase:
		s.phase.pending = append(s.phase.pending, pendingObs{pos: i, obs: obs, prof: profile})
	case KindDecay:
		en := &k.blend
		if !k.hasBlend {
			seed := seedEntry(profile)
			*en = blendEntry{fast: seed, slow: seed}
			k.hasBlend = true
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
		if !k.hasBP {
			k.bp, k.hasBP = seedEntry(profile), true
		}
		k.bp.fold(p.alpha, obs)
	}
	return absErr, scored
}

// BlockEnd marks the end of the trigger instruction's current iteration:
// it consumes a pending disruption mark (every observation of the tainted
// iteration has been delivered and discarded by now) and, for the phase
// predictor, matches the iteration's buffered observation vector against
// the learned regimes. Runtime systems call it once per OnBlockEnd, after
// the iteration's Observes.
func (s *Site) BlockEnd() {
	s.disrupted = false
	if s.p.kind != KindPhase || !s.p.enabled {
		return
	}
	pt := &s.phase
	if len(pt.pending) == 0 {
		return
	}
	pt.clock++
	best, bestD := (*regime)(nil), matchThreshold
	for _, r := range pt.regimes {
		if d := pt.distance(r); d <= bestD {
			best, bestD = r, d
		}
	}
	if best == nil {
		best = pt.newRegime()
	}
	for _, po := range pt.pending {
		en := best.lookup(po.pos)
		if en == nil {
			for len(best.known) <= po.pos {
				best.vals = append(best.vals, entry{})
				best.known = append(best.known, false)
			}
			best.vals[po.pos], best.known[po.pos] = seedEntry(po.prof), true
			en = &best.vals[po.pos]
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
func (pt *phaseTbl) distance(r *regime) float64 {
	var num, den float64
	seen := false
	for _, po := range pt.pending {
		en := r.lookup(po.pos)
		if en == nil {
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
func (pt *phaseTbl) newRegime() *regime {
	r := &regime{used: pt.clock}
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
func (p *Predictor) Errors() ErrorReport {
	rep := ErrorReport{Predictor: string(p.kind), Total: p.errTot}
	for key, s := range p.sites {
		if s.errs.IsZero() {
			continue
		}
		if rep.Keys == nil {
			rep.Keys = make(map[string]ErrorStats)
		}
		rep.Keys[key] = s.errs
	}
	return rep
}

// Reset clears all learned state, disruption marks and error accounting.
// Sites stay valid: their state is cleared in place.
func (p *Predictor) Reset() {
	p.errTot = ErrorStats{}
	for _, s := range p.sites {
		clear(s.kernels)
		s.kernels = s.kernels[:0]
		clear(s.phase.regimes)
		clear(s.phase.pending)
		s.phase = phaseTbl{regimes: s.phase.regimes[:0], pending: s.phase.pending[:0]}
		s.disrupted = false
		s.errs = ErrorStats{}
	}
}

// Len returns the number of (block, kernel) forecasts currently tracked.
func (p *Predictor) Len() int {
	n := 0
	for _, s := range p.sites {
		for i, k := range s.kernels {
			switch p.kind {
			case KindPhase:
				for _, r := range s.phase.regimes {
					if r.lookup(i) != nil {
						n++
						break
					}
				}
			case KindDecay:
				if k.hasBlend {
					n++
				}
			default:
				if k.hasBP {
					n++
				}
			}
		}
	}
	return n
}
