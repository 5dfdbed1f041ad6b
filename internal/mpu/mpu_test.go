package mpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

func profileTrigger() ise.Trigger {
	return ise.Trigger{Kernel: "k", E: 100, TF: 500, TB: 40}
}

func TestForecastPassthroughFirstTime(t *testing.T) {
	p := New()
	got := p.Forecast("blk", profileTrigger())
	if got != profileTrigger() {
		t.Errorf("first forecast = %+v, want profile values", got)
	}
}

func TestObserveCorrectsForecast(t *testing.T) {
	p := New(WithTimingTracking(), WithAlpha(0.5))
	prof := profileTrigger()
	p.Observe("blk", prof, Observation{Kernel: "k", E: 200, TF: 600, TB: 60})
	got := p.Forecast("blk", prof)
	// pred = profile + 0.5*(obs - profile).
	if got.E != 150 {
		t.Errorf("E forecast = %d, want 150", got.E)
	}
	if got.TF != 550 {
		t.Errorf("TF forecast = %d, want 550", got.TF)
	}
	if got.TB != 50 {
		t.Errorf("TB forecast = %d, want 50", got.TB)
	}
}

func TestForecastConverges(t *testing.T) {
	p := New(WithAlpha(0.5), WithTimingTracking())
	prof := profileTrigger()
	for i := 0; i < 20; i++ {
		p.Observe("blk", prof, Observation{Kernel: "k", E: 1000, TF: 90, TB: 7})
	}
	got := p.Forecast("blk", prof)
	if got.E != 1000 || got.TF != 90 || got.TB != 7 {
		t.Errorf("forecast did not converge: %+v", got)
	}
}

func TestConvergenceProperty(t *testing.T) {
	// Under a constant observation stream, the forecast converges to the
	// observation for any alpha in (0, 1].
	f := func(alphaRaw uint8, target uint16) bool {
		alpha := 0.1 + 0.9*float64(alphaRaw)/255
		p := New(WithAlpha(alpha))
		prof := profileTrigger()
		obs := Observation{Kernel: "k", E: int64(target), TF: 10, TB: 10}
		for i := 0; i < 200; i++ {
			p.Observe("blk", prof, obs)
		}
		got := p.Forecast("blk", prof)
		return math.Abs(float64(got.E)-float64(target)) <= 1
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestDefaultTracksCountsOnly(t *testing.T) {
	p := New(WithAlpha(0.5))
	prof := profileTrigger()
	p.Observe("blk", prof, Observation{Kernel: "k", E: 200, TF: 9999, TB: 9999})
	got := p.Forecast("blk", prof)
	if got.E != 150 {
		t.Errorf("E forecast = %d, want 150", got.E)
	}
	if got.TF != prof.TF || got.TB != prof.TB {
		t.Errorf("timing corrected by default: %+v", got)
	}
}

func TestBlocksIndependent(t *testing.T) {
	p := New()
	prof := profileTrigger()
	p.Observe("b1", prof, Observation{Kernel: "k", E: 999, TF: 1, TB: 1})
	if got := p.Forecast("b2", prof); got != prof {
		t.Errorf("observation leaked across blocks: %+v", got)
	}
}

func TestDisabled(t *testing.T) {
	p := New(Disabled())
	prof := profileTrigger()
	p.Observe("blk", prof, Observation{Kernel: "k", E: 999, TF: 1, TB: 1})
	if got := p.Forecast("blk", prof); got != prof {
		t.Errorf("disabled predictor corrected the forecast: %+v", got)
	}
	if p.Enabled() {
		t.Error("Enabled() should be false")
	}
	if p.Len() != 0 {
		t.Error("disabled predictor stored state")
	}
}

func TestAlphaClamped(t *testing.T) {
	p := New(WithAlpha(5)) // clamped to 1
	prof := profileTrigger()
	p.Observe("blk", prof, Observation{Kernel: "k", E: 300, TF: 500, TB: 40})
	if got := p.Forecast("blk", prof); got.E != 300 {
		t.Errorf("alpha=1: forecast = %d, want 300", got.E)
	}
	p2 := New(WithAlpha(-2)) // clamped to 0
	p2.Observe("blk", prof, Observation{Kernel: "k", E: 300, TF: 500, TB: 40})
	if got := p2.Forecast("blk", prof); got.E != prof.E {
		t.Errorf("alpha=0: forecast = %d, want profile %d", got.E, prof.E)
	}
}

func TestForecastAll(t *testing.T) {
	p := New()
	prof := []ise.Trigger{
		{Kernel: "a", E: 10, TF: 1, TB: 1},
		{Kernel: "b", E: 20, TF: 2, TB: 2},
	}
	p.Observe("blk", prof[0], Observation{Kernel: "a", E: 30, TF: 1, TB: 1})
	out := p.ForecastAll("blk", prof)
	if len(out) != 2 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0].E != 15 { // 10 + 0.25*(30-10), default damped alpha
		t.Errorf("corrected E = %d, want 15", out[0].E)
	}
	if out[1] != prof[1] {
		t.Errorf("untouched trigger changed: %+v", out[1])
	}
}

func TestReset(t *testing.T) {
	p := New()
	prof := profileTrigger()
	p.Observe("blk", prof, Observation{Kernel: "k", E: 999, TF: 1, TB: 1})
	p.Reset()
	if p.Len() != 0 {
		t.Error("state survived Reset")
	}
	if got := p.Forecast("blk", prof); got != prof {
		t.Errorf("forecast after Reset = %+v, want profile", got)
	}
}

func TestObservationTypes(t *testing.T) {
	o := Observation{Kernel: "k", E: 1, TF: arch.Cycles(2), TB: arch.Cycles(3)}
	if o.Kernel != "k" || o.E != 1 || o.TF != 2 || o.TB != 3 {
		t.Error("observation fields wrong")
	}
}

func TestNoteDisruptionSkipsObservations(t *testing.T) {
	p := New(WithAlpha(0.5))
	prof := profileTrigger()
	p.NoteDisruption("blk")
	// The disrupted iteration's observation is discarded: the forecast
	// stays at the profile values.
	p.Observe("blk", prof, Observation{Kernel: "k", E: 200})
	if got := p.Forecast("blk", prof); got.E != prof.E {
		t.Errorf("disrupted observation leaked into the forecast: E = %d", got.E)
	}
	// Other keys are unaffected.
	p.Observe("other", prof, Observation{Kernel: "k", E: 200})
	if got := p.Forecast("other", prof); got.E == prof.E {
		t.Error("undisrupted key skipped its observation")
	}
	// Pulling the next iteration's forecasts does NOT clear the mark — a
	// pipelined driver may fetch them before the tainted observations
	// arrive, and those must still be discarded.
	p.ForecastAll("blk", []ise.Trigger{prof})
	if !p.Disrupted("blk") {
		t.Error("ForecastAll cleared the disruption mark (pipelined-driver bug)")
	}
	p.Observe("blk", prof, Observation{Kernel: "k", E: 200})
	if got := p.Forecast("blk", prof); got.E != prof.E {
		t.Errorf("tainted observation after a pipelined forecast pull leaked in: E = %d", got.E)
	}
	// BlockEnd — the end of the iteration the fault perturbed — consumes
	// the mark, so the following iteration's observation counts again.
	p.BlockEnd("blk")
	if p.Disrupted("blk") {
		t.Error("BlockEnd did not consume the disruption mark")
	}
	p.Observe("blk", prof, Observation{Kernel: "k", E: 200})
	if got := p.Forecast("blk", prof); got.E == prof.E {
		t.Error("observation after the consuming block end still skipped")
	}
}

func TestNoteDisruptionResetAndDisabled(t *testing.T) {
	p := New(WithAlpha(0.5))
	p.NoteDisruption("blk")
	p.Reset()
	prof := profileTrigger()
	p.Observe("blk", prof, Observation{Kernel: "k", E: 200})
	if got := p.Forecast("blk", prof); got.E == prof.E {
		t.Error("disruption mark survived Reset")
	}
	d := New(Disabled())
	d.NoteDisruption("blk") // must not panic or allocate state
	if got := d.Forecast("blk", prof); got != prof {
		t.Error("disabled predictor changed the forecast")
	}
}
