package h264

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mrts/internal/video"
)

func TestBoundaryStrength(t *testing.T) {
	cases := []struct {
		name string
		p, q BlockInfo
		want int
	}{
		{"both plain", BlockInfo{}, BlockInfo{}, BSNone},
		{"p intra", BlockInfo{Intra: true}, BlockInfo{}, BSIntra},
		{"q intra", BlockInfo{}, BlockInfo{Intra: true}, BSIntra},
		{"p coded", BlockInfo{Coded: true}, BlockInfo{}, BSCoded},
		{"mv far", BlockInfo{MV: MV{4, 0}}, BlockInfo{}, BSMV},
		{"mv near", BlockInfo{MV: MV{1, 1}}, BlockInfo{MV: MV{2, 2}}, BSNone},
		{"mv negative far", BlockInfo{MV: MV{0, -5}}, BlockInfo{}, BSMV},
	}
	for _, c := range cases {
		if got := BoundaryStrength(c.p, c.q); got != c.want {
			t.Errorf("%s: BS = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestBoundaryStrengthIntraDominates(t *testing.T) {
	p := BlockInfo{Intra: true, Coded: true, MV: MV{9, 9}}
	if BoundaryStrength(p, BlockInfo{}) != BSIntra {
		t.Error("intra must dominate coded and MV conditions")
	}
}

func TestAlphaBetaTables(t *testing.T) {
	if alphaOf(15) != 0 || betaOf(15) != 0 {
		t.Error("thresholds must be 0 below index 16 (filtering disabled)")
	}
	prev := int32(0)
	for idx := 16; idx <= 51; idx++ {
		a := alphaOf(idx)
		if a < prev {
			t.Errorf("alpha not monotone at %d: %d < %d", idx, a, prev)
		}
		prev = a
		if b := betaOf(idx); b != int32(idx/2-7) {
			t.Errorf("beta(%d) = %d", idx, b)
		}
	}
	// Clamped beyond 51.
	if alphaOf(60) != alphaOf(51) {
		t.Error("alpha not clamped at 51")
	}
}

// edgeFrame builds a frame with a sharp vertical edge at x=8: left half at
// lo, right half at hi.
func edgeFrame(lo, hi uint8) *video.Frame {
	f := video.NewFrame(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if x < 8 {
				f.Set(x, y, lo)
			} else {
				f.Set(x, y, hi)
			}
		}
	}
	return f
}

func TestFilterEdgeSmoothsBlockingArtifact(t *testing.T) {
	// A small step (within alpha/beta) across a block edge is smoothed.
	f := edgeFrame(100, 104)
	changed := FilterEdge(f, 8, 0, true, BSCoded, 30)
	if !changed {
		t.Fatal("small blocking step not filtered")
	}
	// The step must have shrunk.
	gap := int(f.At(8, 1)) - int(f.At(7, 1))
	if gap >= 4 {
		t.Errorf("edge gap after filtering = %d, want < 4", gap)
	}
}

func TestFilterEdgePreservesRealEdges(t *testing.T) {
	// A large step (a real object edge, |p0-q0| >= alpha) is preserved.
	f := edgeFrame(30, 220)
	before := f.Clone()
	FilterEdge(f, 8, 0, true, BSCoded, 30)
	for i := range f.Y {
		if f.Y[i] != before.Y[i] {
			t.Fatal("real edge was smoothed away")
		}
	}
}

func TestFilterEdgeBSNone(t *testing.T) {
	f := edgeFrame(100, 104)
	if FilterEdge(f, 8, 0, true, BSNone, 30) {
		t.Error("BS 0 edge filtered")
	}
}

func TestFilterEdgeLowQPDisabled(t *testing.T) {
	f := edgeFrame(100, 104)
	if FilterEdge(f, 8, 0, true, BSCoded, 10) {
		t.Error("filtering below index 16 should be disabled")
	}
}

// TestFilterEdgeOnFrameBorderIsNoop checks that a segment whose taps
// would leave the frame is left alone by both edge filters.
func TestFilterEdgeOnFrameBorderIsNoop(t *testing.T) {
	f := edgeFrame(100, 104)
	c := chromaEdgeFrame(100, 104)
	want, wantC := f.Clone(), c.Clone()
	for _, e := range []struct {
		x, y     int
		vertical bool
	}{{0, 0, true}, {1, 4, true}, {f.W - 1, 0, true}, {8, f.H - 2, true}, {0, 0, false}, {4, 1, false}, {0, f.H - 1, false}, {f.W - 2, 4, false}} {
		if FilterEdge(f, e.x, e.y, e.vertical, BSIntra, 30) {
			t.Errorf("luma edge %+v on the border filtered", e)
		}
		if FilterChromaEdge(c, e.x/2, e.y/2, e.vertical, BSIntra, 30) {
			t.Errorf("chroma edge %+v on the border filtered", e)
		}
	}
	if !reflect.DeepEqual(f, want) || !reflect.DeepEqual(c, wantC) {
		t.Error("a border edge changed the frame")
	}
}

func TestFilterEdgeHorizontal(t *testing.T) {
	f := video.NewFrame(16, 16)
	for y := 0; y < 16; y++ {
		v := uint8(100)
		if y >= 8 {
			v = 104
		}
		for x := 0; x < 16; x++ {
			f.Set(x, y, v)
		}
	}
	if !FilterEdge(f, 0, 8, false, BSIntra, 30) {
		t.Fatal("horizontal edge not filtered")
	}
	gap := int(f.At(1, 8)) - int(f.At(1, 7))
	if gap >= 4 {
		t.Errorf("horizontal gap after filtering = %d", gap)
	}
}

func TestFilterEdgePixelsStayInRange(t *testing.T) {
	f := func(lo, hi uint8, qpRaw uint8, bsRaw uint8) bool {
		qp := int(qpRaw) % 52
		bs := int(bsRaw)%3 + 1
		fr := edgeFrame(lo, hi)
		FilterEdge(fr, 8, 0, true, bs, qp)
		// uint8 storage cannot leave range, but the filter must also
		// not corrupt samples away from the edge.
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				if x == 7 || x == 8 {
					continue
				}
				want := lo
				if x >= 8 {
					want = hi
				}
				if fr.At(x, y) != want {
					return false
				}
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestClip3(t *testing.T) {
	if clip3(5, -2, 2) != 2 || clip3(-5, -2, 2) != -2 || clip3(1, -2, 2) != 1 {
		t.Error("clip3 wrong")
	}
}

func TestClipPixel(t *testing.T) {
	if clipPixel(-3) != 0 || clipPixel(300) != 255 || clipPixel(42) != 42 {
		t.Error("clipPixel wrong")
	}
}
