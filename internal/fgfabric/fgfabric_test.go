package fgfabric

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
)

func TestBytesPerDataPathMatchesPaperConstant(t *testing.T) {
	// Streaming the standard per-data-path bitstream must take the
	// paper's 1.2 ms — the constant internal/arch bakes in — within
	// integer rounding.
	cycles := StreamCycles(BytesPerDataPath)
	diff := cycles - arch.FGReconfigCycles
	if diff < 0 {
		diff = -diff
	}
	if diff > arch.FGReconfigCycles/100 {
		t.Errorf("standard bitstream streams in %d cycles, want ~%d (1.2 ms)", cycles, arch.FGReconfigCycles)
	}
}

func TestStreamCyclesProportional(t *testing.T) {
	half := StreamCycles(BytesPerDataPath / 2)
	full := StreamCycles(BytesPerDataPath)
	if half <= 0 || full <= 0 {
		t.Fatal("non-positive stream times")
	}
	ratio := float64(full) / float64(half)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling the bitstream changed time by %.2fx, want ~2x", ratio)
	}
	if StreamCycles(0) != 0 {
		t.Error("empty bitstream should stream instantly")
	}
}

func TestPortSerialises(t *testing.T) {
	var p Port
	r1, err := p.Enqueue("a", BytesPerDataPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p.Enqueue("b", BytesPerDataPath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 2*r1 {
		t.Errorf("second load ready at %d, want %d (serial port)", r2, 2*r1)
	}
	if got := p.Backlog(0); got != r2 {
		t.Errorf("backlog = %d, want %d", got, r2)
	}
	if got := p.Backlog(r2 + 1); got != 0 {
		t.Errorf("backlog after drain = %d", got)
	}
}

func TestPortRejectsEmpty(t *testing.T) {
	var p Port
	if _, err := p.Enqueue("x", 0, 0); err == nil {
		t.Error("empty bitstream accepted")
	}
}

func TestProgress(t *testing.T) {
	var p Port
	ready, _ := p.Enqueue("a", BytesPerDataPath, 1000)
	if f, ok := p.Progress("a", 0); !ok || f != 0 {
		t.Errorf("progress before start = %v %v", f, ok)
	}
	if f, ok := p.Progress("a", ready); !ok || f != 1 {
		t.Errorf("progress at completion = %v %v", f, ok)
	}
	mid := 1000 + (ready-1000)/2
	if f, _ := p.Progress("a", mid); f < 0.45 || f > 0.55 {
		t.Errorf("progress at midpoint = %v", f)
	}
	if _, ok := p.Progress("zz", 0); ok {
		t.Error("unknown load reported progress")
	}
}

func TestLoadsSortedAndReset(t *testing.T) {
	var p Port
	if _, err := p.Enqueue("b", 1000, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Enqueue("a", 1000, 0); err != nil {
		t.Fatal(err)
	}
	loads := p.Loads()
	if len(loads) != 2 || loads[0].ID != "b" {
		t.Errorf("loads = %+v", loads)
	}
	p.Reset()
	if len(p.Loads()) != 0 || p.Backlog(0) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestMonotoneReadinessProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		var p Port
		var last arch.Cycles
		for i, s := range sizes {
			b := int(s%5000) + 1
			ready, err := p.Enqueue(string(rune('a'+i%26)), b, arch.Cycles(i)*10)
			if err != nil || ready < last {
				return false
			}
			last = ready
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}
