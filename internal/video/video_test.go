package video

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFrameAtClamps(t *testing.T) {
	f := NewFrame(4, 4)
	f.Set(0, 0, 11)
	f.Set(3, 3, 22)
	if f.At(-5, -5) != 11 {
		t.Error("negative coordinates should clamp to (0,0)")
	}
	if f.At(10, 10) != 22 {
		t.Error("overflow coordinates should clamp to (3,3)")
	}
}

func TestFrameSetIgnoresOutOfRange(t *testing.T) {
	f := NewFrame(2, 2)
	f.Set(-1, 0, 9)
	f.Set(0, 5, 9)
	for _, v := range f.Y {
		if v != 0 {
			t.Error("out-of-range Set modified the frame")
		}
	}
}

func TestFrameClone(t *testing.T) {
	f := NewFrame(2, 2)
	f.Set(1, 1, 7)
	c := f.Clone()
	c.Set(1, 1, 9)
	if f.At(1, 1) != 7 {
		t.Error("clone shares storage with original")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	opts := Options{SceneCuts: []int{3}}
	g1, err := NewGenerator(64, 48, 42, opts)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(64, 48, 42, opts)
	for i := 0; i < 6; i++ {
		a, b := g1.Next(), g2.Next()
		if !bytes.Equal(a.Y, b.Y) {
			t.Fatalf("frame %d differs between identically seeded generators", i)
		}
	}
}

func TestGeneratorSeedMatters(t *testing.T) {
	g1, _ := NewGenerator(64, 48, 1, Options{})
	g2, _ := NewGenerator(64, 48, 2, Options{})
	if bytes.Equal(g1.Next().Y, g2.Next().Y) {
		t.Error("different seeds produced identical frames")
	}
}

func TestGeneratorSceneCutChangesContent(t *testing.T) {
	g, _ := NewGenerator(64, 48, 7, Options{SceneCuts: []int{2}, Noise: 1})
	f1 := g.Next()
	_ = g.Next()
	f3 := g.Next() // after the cut
	diff := 0
	for i := range f1.Y {
		d := int(f1.Y[i]) - int(f3.Y[i])
		if d < 0 {
			d = -d
		}
		diff += d
	}
	// A scene cut replaces background and objects: the average change
	// must be far above the noise floor.
	if avg := float64(diff) / float64(len(f1.Y)); avg < 4 {
		t.Errorf("scene cut barely changed the frame (avg abs diff %.2f)", avg)
	}
}

func TestGeneratorInvalidSize(t *testing.T) {
	if _, err := NewGenerator(0, 10, 1, Options{}); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewGenerator(10, -1, 1, Options{}); err == nil {
		t.Error("negative height accepted")
	}
}

func TestSequenceLength(t *testing.T) {
	g, _ := NewGenerator(32, 32, 1, Options{})
	frames := g.Sequence(5)
	if len(frames) != 5 {
		t.Fatalf("Sequence(5) = %d frames", len(frames))
	}
	if g.FrameNo() != 5 {
		t.Errorf("FrameNo = %d, want 5", g.FrameNo())
	}
}

func TestFramesInValidRange(t *testing.T) {
	g, _ := NewGenerator(48, 48, 3, Options{Noise: 20})
	for i := 0; i < 4; i++ {
		f := g.Next()
		if len(f.Y) != 48*48 {
			t.Fatalf("frame size wrong: %d", len(f.Y))
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(99)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
	}
	if r.Intn(0) != 0 || r.Intn(-5) != 0 {
		t.Error("Intn with non-positive bound should return 0")
	}
}

func TestRNGDeterministicProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 10; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestChromaPlanesPopulated(t *testing.T) {
	g, _ := NewGenerator(64, 48, 9, Options{Objects: 3, Noise: 8})
	f := g.Next()
	if !f.HasChroma() {
		t.Fatal("generated frame has no chroma")
	}
	if len(f.Cb) != f.CW()*f.CH() || len(f.Cr) != len(f.Cb) {
		t.Fatalf("chroma plane sizes %d/%d for %dx%d", len(f.Cb), len(f.Cr), f.CW(), f.CH())
	}
	// Objects carry non-neutral hues: the planes must not be flat 128.
	varies := false
	for _, v := range f.Cb {
		if v < 120 || v > 136 {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("Cb plane is neutral everywhere; objects should colour it")
	}
}

func TestChromaAccessorsClamp(t *testing.T) {
	f := NewFrame(16, 16)
	f.CbSet(0, 0, 42)
	if f.CbAt(-3, -3) != 42 {
		t.Error("chroma At should clamp to the plane")
	}
	f.CrSet(100, 100, 9) // ignored
	for _, v := range f.Cr {
		if v == 9 {
			t.Fatal("out-of-range chroma Set wrote")
		}
	}
	var empty Frame
	if empty.CbAt(0, 0) != 128 {
		t.Error("missing chroma plane should read neutral")
	}
}

func TestCloneCopiesChroma(t *testing.T) {
	f := NewFrame(16, 16)
	f.CbSet(2, 2, 200)
	c := f.Clone()
	c.CbSet(2, 2, 10)
	if f.CbAt(2, 2) != 200 {
		t.Error("clone shares chroma storage")
	}
}
