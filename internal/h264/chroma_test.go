package h264

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/video"
)

func TestHadamard2Involution(t *testing.T) {
	f := func(vals [4]int16) bool {
		var b Block2
		for i, v := range vals {
			b[i] = int32(v)
		}
		orig := b
		Hadamard2(&b)
		Hadamard2(&b)
		for i := range b {
			if b[i] != 4*orig[i] {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestQuantDC2(t *testing.T) {
	var zero Block2
	if QuantDC2(&zero, 24) != 0 {
		t.Error("zero DC block has non-zero levels")
	}
	b := Block2{40000, -40000, 3, 0}
	nz := QuantDC2(&b, 24)
	if nz == 0 {
		t.Fatal("large DC levels vanished")
	}
	if b[0] <= 0 || b[1] >= 0 {
		t.Error("signs lost in chroma DC quantisation")
	}
}

func TestPredictChromaDC(t *testing.T) {
	f := video.NewFrame(32, 32)
	// Top neighbours 60, left neighbours 180 for the chroma block at
	// chroma coordinates (8, 8).
	for i := 0; i < 8; i++ {
		f.CbSet(8+i, 7, 60)
		f.CbSet(7, 8+i, 180)
	}
	got := planesOf(f)[0].predictDC(8, 8)
	want := int32((8*60 + 8*180 + 8) >> 4)
	if got != want {
		t.Errorf("chroma DC prediction = %d, want %d", got, want)
	}
	// On the plane's top and left edges the missing neighbours are read
	// clamped, as the frame's own accessor reads them.
	for _, c := range [][2]int{{0, 0}, {8, 0}, {0, 8}} {
		var sum int32
		for i := 0; i < 8; i++ {
			sum += int32(f.CbAt(c[0]+i, c[1]-1)) + int32(f.CbAt(c[0]-1, c[1]+i))
		}
		if got, want := planesOf(f)[0].predictDC(c[0], c[1]), (sum+8)>>4; got != want {
			t.Errorf("chroma DC prediction at %v = %d, want %d", c, got, want)
		}
	}
}

// TestMotionCompensateChroma checks the chroma prediction against the
// frame's clamped accessor, for a block inside the plane and for vectors
// that carry it past each edge.
func TestMotionCompensateChroma(t *testing.T) {
	f := video.NewFrame(64, 64)
	for y := 0; y < f.CH(); y++ {
		for x := 0; x < f.CW(); x++ {
			f.CbSet(x, y, uint8((x*5+y*11)%251))
		}
	}
	cases := []struct {
		mbx, mby int
		mv       MV
	}{
		{16, 16, MV{12, -8}}, // chroma displacement (3, -2)
		{0, 0, MV{-13, -9}},
		{48, 48, MV{13, 9}},
		{0, 48, MV{-40, 40}},
		{48, 0, MV{200, -200}},
	}
	for _, c := range cases {
		var buf [64]uint8
		planesOf(f)[0].compensate(c.mbx, c.mby, c.mv, buf[:])
		cx, cy := c.mbx/2+c.mv.X/4, c.mby/2+c.mv.Y/4
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if want := f.CbAt(cx+x, cy+y); buf[y*8+x] != want {
					t.Fatalf("MB (%d,%d) mv %v: sample (%d,%d) = %d, want %d", c.mbx, c.mby, c.mv, x, y, buf[y*8+x], want)
				}
			}
		}
	}
}

// chromaEdgeFrame builds a frame whose Cb plane has a vertical step at
// chroma x=4.
func chromaEdgeFrame(lo, hi uint8) *video.Frame {
	f := video.NewFrame(16, 16)
	for y := 0; y < f.CH(); y++ {
		for x := 0; x < f.CW(); x++ {
			v := lo
			if x >= 4 {
				v = hi
			}
			f.CbSet(x, y, v)
			f.CrSet(x, y, v)
		}
	}
	return f
}

func TestFilterChromaEdgeSmooths(t *testing.T) {
	f := chromaEdgeFrame(100, 104)
	if !FilterChromaEdge(f, 4, 0, true, BSIntra, 30) {
		t.Fatal("small chroma step not filtered")
	}
	gap := int(f.CbAt(4, 0)) - int(f.CbAt(3, 0))
	if gap >= 4 {
		t.Errorf("chroma gap after filtering = %d", gap)
	}
}

func TestFilterChromaEdgePreservesRealEdges(t *testing.T) {
	f := chromaEdgeFrame(30, 220)
	if FilterChromaEdge(f, 4, 0, true, BSIntra, 30) {
		t.Error("real chroma edge was smoothed")
	}
}

func TestFilterChromaEdgeBSNone(t *testing.T) {
	f := chromaEdgeFrame(100, 104)
	if FilterChromaEdge(f, 4, 0, true, BSNone, 30) {
		t.Error("BS 0 chroma edge filtered")
	}
}

func TestEncoderChromaReconstruction(t *testing.T) {
	// Encode content with strong chroma structure and verify the chroma
	// planes reconstruct with low error.
	g, err := video.NewGenerator(64, 48, 11, video.Options{Objects: 3})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(64, 48, Config{QP: 20})
	if err != nil {
		t.Fatal(err)
	}
	frame := g.Next()
	if _, err := enc.EncodeFrame(frame); err != nil {
		t.Fatal(err)
	}
	rec := enc.ref
	var sse, n float64
	for i := range frame.Cb {
		d := float64(frame.Cb[i]) - float64(rec.Cb[i])
		sse += d * d
		d = float64(frame.Cr[i]) - float64(rec.Cr[i])
		sse += d * d
		n += 2
	}
	mse := sse / n
	if mse > 120 {
		t.Errorf("chroma MSE = %.1f, reconstruction broken", mse)
	}
}

func TestEncoderChromaCountsPresent(t *testing.T) {
	g, _ := video.NewGenerator(64, 48, 3, video.Options{})
	enc, _ := NewEncoder(64, 48, Config{})
	st, err := enc.EncodeFrame(g.Next())
	if err != nil {
		t.Fatal(err)
	}
	mbs := int64((64 / 16) * (48 / 16))
	// Intra frame: 16 luma + 8 chroma DCT blocks per MB.
	if st.Counts[KernelDCT] != 24*mbs {
		t.Errorf("dct invocations = %d, want %d", st.Counts[KernelDCT], 24*mbs)
	}
	if st.Counts[KernelQuant] != 24*mbs {
		t.Errorf("quant invocations = %d, want %d", st.Counts[KernelQuant], 24*mbs)
	}
}
