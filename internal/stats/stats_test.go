package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("mean = %v", got)
	}
}

func TestMaxMin(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 || Min(xs) != -1 {
		t.Errorf("max/min = %v/%v", Max(xs), Min(xs))
	}
	if Max(nil) != 0 || Min(nil) != 0 {
		t.Error("empty max/min should be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-9 {
		t.Errorf("geomean = %v, want 2", got)
	}
	if GeoMean([]float64{1, 0}) != 0 {
		t.Error("non-positive values should yield 0")
	}
	if GeoMean(nil) != 0 {
		t.Error("empty should yield 0")
	}
}

func TestPercentDiff(t *testing.T) {
	if got := PercentDiff(200, 180); got != 10 {
		t.Errorf("diff = %v, want 10", got)
	}
	if PercentDiff(0, 5) != 0 {
		t.Error("zero base should yield 0")
	}
}

func TestMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestGeoMeanLeqMeanProperty(t *testing.T) {
	// AM-GM inequality for positive values.
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-6 && v < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		return GeoMean(xs) <= Mean(xs)+1e-9
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}
