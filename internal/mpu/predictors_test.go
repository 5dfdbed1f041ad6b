package mpu

import (
	"testing"

	"mrts/internal/ise"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", KindBackProp, true},
		{"backprop", KindBackProp, true},
		{"BackProp", KindBackProp, true},
		{"phase", KindPhase, true},
		{"decay", KindDecay, true},
		{"oracle", "", false},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseKind(%q) accepted", c.in)
		}
	}
	if len(Kinds()) != 3 {
		t.Errorf("Kinds() = %v, want 3 entries", Kinds())
	}
}

// driveIterations replays a sequence of per-iteration observed counts
// through the full trigger/observe/block-end protocol and returns the
// predictor's accumulated error accounting.
func driveIterations(p *Predictor, prof ise.Trigger, counts []int64) ErrorReport {
	for _, e := range counts {
		p.ForecastAll("blk", []ise.Trigger{prof})
		p.Observe("blk", prof, Observation{Kernel: prof.Kernel, E: e, TF: prof.TF, TB: prof.TB})
		p.BlockEnd("blk")
	}
	return p.Errors()
}

// phasePattern alternates two execution regimes in runs, the workload
// shape back-propagation keeps re-converging on and a phase table recalls.
func phasePattern(runs, runLen int, a, b int64) []int64 {
	var out []int64
	for r := 0; r < runs; r++ {
		v := a
		if r%2 == 1 {
			v = b
		}
		for i := 0; i < runLen; i++ {
			out = append(out, v)
		}
	}
	return out
}

func TestPhasePredictorBeatsBackPropOnRecurringRegimes(t *testing.T) {
	prof := ise.Trigger{Kernel: "k", E: 500, TF: 100, TB: 10}
	counts := phasePattern(12, 4, 1000, 100)

	bp := driveIterations(New(), prof, counts)
	ph := driveIterations(New(WithPredictor(KindPhase)), prof, counts)

	if bp.Total.Samples != int64(len(counts)) || ph.Total.Samples != bp.Total.Samples {
		t.Fatalf("samples: backprop %d, phase %d, want %d", bp.Total.Samples, ph.Total.Samples, len(counts))
	}
	if ph.Total.AbsErrE >= bp.Total.AbsErrE {
		t.Errorf("phase tables no better than back-propagation on recurring regimes: phase %d >= backprop %d",
			ph.Total.AbsErrE, bp.Total.AbsErrE)
	}
}

func TestDecayBlendBeatsBackPropOnLevelShifts(t *testing.T) {
	prof := ise.Trigger{Kernel: "k", E: 500, TF: 100, TB: 10}
	// Long level shifts: the fast average locks on within an iteration or
	// two while alpha=0.25 back-propagation crawls over the gap.
	counts := phasePattern(6, 8, 2000, 200)

	bp := driveIterations(New(), prof, counts)
	dc := driveIterations(New(WithPredictor(KindDecay)), prof, counts)

	if dc.Total.AbsErrE >= bp.Total.AbsErrE {
		t.Errorf("decay blending no better than back-propagation on level shifts: decay %d >= backprop %d",
			dc.Total.AbsErrE, bp.Total.AbsErrE)
	}
}

func TestPredictorKindsDeterministic(t *testing.T) {
	prof := ise.Trigger{Kernel: "k", E: 500, TF: 100, TB: 10}
	counts := phasePattern(8, 3, 900, 150)
	for _, k := range []Kind{KindBackProp, KindPhase, KindDecay} {
		a := driveIterations(New(WithPredictor(k)), prof, counts)
		b := driveIterations(New(WithPredictor(k)), prof, counts)
		if a.Total != b.Total {
			t.Errorf("%s: repeat run diverged: %+v vs %+v", k, a.Total, b.Total)
		}
		if a.Predictor != string(k) {
			t.Errorf("ErrorReport.Predictor = %q, want %q", a.Predictor, k)
		}
	}
}

func TestErrorAccounting(t *testing.T) {
	p := New(WithAlpha(0.5))
	prof := ise.Trigger{Kernel: "k", E: 100, TF: 500, TB: 40}

	// First iteration: the issued forecast is the profile value (100),
	// the observation is 140 -> error 40.
	p.ForecastAll("blk", []ise.Trigger{prof})
	absErr, scored := p.Observe("blk", prof, Observation{Kernel: "k", E: 140})
	if !scored || absErr != 40 {
		t.Fatalf("first observation: absErr=%d scored=%v, want 40 true", absErr, scored)
	}
	p.BlockEnd("blk")

	// Second iteration: the corrected forecast is 100+0.5*40 = 120, the
	// observation 140 again -> error 20.
	p.ForecastAll("blk", []ise.Trigger{prof})
	absErr, scored = p.Observe("blk", prof, Observation{Kernel: "k", E: 140})
	if !scored || absErr != 20 {
		t.Fatalf("second observation: absErr=%d scored=%v, want 20 true", absErr, scored)
	}
	p.BlockEnd("blk")

	rep := p.Errors()
	want := ErrorStats{Samples: 2, AbsErrE: 60, ObsE: 280}
	if rep.Total != want {
		t.Errorf("total error stats = %+v, want %+v", rep.Total, want)
	}
	if got := rep.Keys["blk"]; got != want {
		t.Errorf("per-key error stats = %+v, want %+v", got, want)
	}
	if m := rep.Total.MeanAbsE(); m != 30 {
		t.Errorf("MeanAbsE = %v, want 30", m)
	}
	if rep.IsZero() {
		t.Error("scored report claims IsZero")
	}

	p.Reset()
	if got := p.Errors(); !got.IsZero() || got.Keys != nil {
		t.Errorf("error accounting survived Reset: %+v", got)
	}
}

func TestErrorAccountingSkipsDisruptedAndDisabled(t *testing.T) {
	p := New()
	prof := ise.Trigger{Kernel: "k", E: 100, TF: 500, TB: 40}
	p.ForecastAll("blk", []ise.Trigger{prof})
	p.NoteDisruption("blk")
	if _, scored := p.Observe("blk", prof, Observation{Kernel: "k", E: 9999}); scored {
		t.Error("disrupted observation was scored")
	}
	p.BlockEnd("blk")
	if got := p.Errors(); !got.IsZero() {
		t.Errorf("disrupted observation entered the accounting: %+v", got)
	}

	d := New(Disabled())
	d.ForecastAll("blk", []ise.Trigger{prof})
	if _, scored := d.Observe("blk", prof, Observation{Kernel: "k", E: 120}); scored {
		t.Error("disabled predictor scored an observation")
	}
	if got := d.Errors(); !got.IsZero() {
		t.Errorf("disabled predictor accumulated errors: %+v", got)
	}
}

// An observation with no issued forecast (the driver never pulled
// ForecastAll for the key) folds into the state but is not scored: there
// was no forecast to be wrong.
func TestObservationWithoutIssuedForecastUnscored(t *testing.T) {
	p := New()
	prof := ise.Trigger{Kernel: "k", E: 100, TF: 500, TB: 40}
	if _, scored := p.Observe("blk", prof, Observation{Kernel: "k", E: 200}); scored {
		t.Error("observation scored without an issued forecast")
	}
	if got := p.Forecast("blk", prof); got.E == prof.E {
		t.Error("unscored observation was not folded into the state")
	}
}

func TestPhaseRegimeTableBounded(t *testing.T) {
	p := New(WithPredictor(KindPhase))
	prof := ise.Trigger{Kernel: "k", E: 100, TF: 1, TB: 1}
	// Far more distinct regimes than the table holds; each iteration's
	// count is far outside matchThreshold of every other.
	for i := 0; i < 4*maxRegimes; i++ {
		e := int64(100) << uint(i%16)
		p.ForecastAll("blk", []ise.Trigger{prof})
		p.Observe("blk", prof, Observation{Kernel: "k", E: e})
		p.BlockEnd("blk")
	}
	if n := len(p.Site("blk").phase.regimes); n > maxRegimes {
		t.Errorf("regime table grew to %d entries, bound is %d", n, maxRegimes)
	}
}

func TestKindAccessor(t *testing.T) {
	if k := New().Kind(); k != KindBackProp {
		t.Errorf("default kind = %v", k)
	}
	if k := New(WithPredictor(KindDecay)).Kind(); k != KindDecay {
		t.Errorf("kind = %v, want decay", k)
	}
	if k := New(WithPredictor("")).Kind(); k != KindBackProp {
		t.Errorf("empty WithPredictor changed the kind to %q", k)
	}
}
