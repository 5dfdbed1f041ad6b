package h264

import (
	"reflect"
	"testing"

	"mrts/internal/video"
)

func testSequence(frames int) []*video.Frame {
	g, err := video.NewGenerator(64, 48, 7, video.Options{Objects: 2})
	if err != nil {
		panic(err)
	}
	return g.Sequence(frames)
}

func TestNewEncoderValidatesSize(t *testing.T) {
	if _, err := NewEncoder(100, 48, Config{}); err == nil {
		t.Error("width not multiple of 16 accepted")
	}
	if _, err := NewEncoder(0, 0, Config{}); err == nil {
		t.Error("zero size accepted")
	}
}

func TestFirstFrameAllIntra(t *testing.T) {
	e, _ := NewEncoder(64, 48, Config{})
	st, err := e.EncodeFrame(testSequence(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	mbs := (64 / 16) * (48 / 16)
	if st.Intra != mbs || st.Inter != 0 || st.Skip != 0 {
		t.Errorf("frame 0: intra=%d inter=%d skip=%d, want all %d intra", st.Intra, st.Inter, st.Skip, mbs)
	}
	if st.Counts[KernelSAD] != 0 {
		t.Error("intra frame ran motion estimation")
	}
	if st.Counts[KernelIPred] == 0 || st.Counts[KernelDCT] == 0 {
		t.Error("intra frame missing ipred/dct kernel invocations")
	}
	// One luma-DC Hadamard plus two chroma-DC Hadamards per intra MB.
	if st.Counts[KernelHadamard] != int64(3*mbs) {
		t.Errorf("hadamard invocations = %d, want %d (three per intra MB)", st.Counts[KernelHadamard], 3*mbs)
	}
}

func TestStaticSceneSkips(t *testing.T) {
	// Two identical frames: every macroblock of frame 1 should skip.
	f := video.NewFrame(64, 48)
	for i := range f.Y {
		f.Y[i] = uint8(i % 200)
	}
	e, _ := NewEncoder(64, 48, Config{QP: 20, SkipThreshold: 2000})
	if _, err := e.EncodeFrame(f); err != nil {
		t.Fatal(err)
	}
	st, err := e.EncodeFrame(f.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if st.Skip == 0 {
		t.Errorf("no skipped macroblocks on a static frame: %+v", st)
	}
	// Skips still run motion compensation (4 quadrants per MB).
	if st.Counts[KernelMC] < int64(st.Skip)*4 {
		t.Errorf("mc invocations = %d for %d skips", st.Counts[KernelMC], st.Skip)
	}
}

func TestDeblockCountsShape(t *testing.T) {
	e, _ := NewEncoder(64, 48, Config{})
	st, err := e.EncodeFrame(testSequence(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	// bs runs on every internal luma 4x4 edge: (w/4-1)*(h/4) vertical +
	// (w/4)*(h/4-1) horizontal; chroma reuses the luma strengths.
	w4, h4 := 64/4, 48/4
	wantBS := int64((w4-1)*h4 + w4*(h4-1))
	if st.Counts[KernelBS] != wantBS {
		t.Errorf("bs invocations = %d, want %d", st.Counts[KernelBS], wantBS)
	}
	// All blocks are intra, so every edge filters — luma edges plus the
	// chroma edges on every second luma boundary.
	chroma := int64((w4/2-1)*h4 + w4*(h4/2-1))
	if st.Counts[KernelFilt] != wantBS+chroma {
		t.Errorf("filt invocations = %d, want %d on an all-intra frame", st.Counts[KernelFilt], wantBS+chroma)
	}
}

func TestInterFrameUsesMotionEstimation(t *testing.T) {
	e, _ := NewEncoder(64, 48, Config{SkipThreshold: 1})
	seq := testSequence(2)
	if _, err := e.EncodeFrame(seq[0]); err != nil {
		t.Fatal(err)
	}
	st, err := e.EncodeFrame(seq[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Counts[KernelSAD] == 0 {
		t.Error("inter frame ran no SAD")
	}
	if st.Intra+st.Inter+st.Skip != (64/16)*(48/16) {
		t.Error("macroblock modes do not add up")
	}
}

func TestEncoderDeterministic(t *testing.T) {
	run := func() []*FrameStats {
		e, _ := NewEncoder(64, 48, Config{})
		var out []*FrameStats
		for _, f := range testSequence(3) {
			st, err := e.EncodeFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, st)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if !reflect.DeepEqual(a[i].Counts, b[i].Counts) {
			t.Fatalf("frame %d counts differ between identical runs", i)
		}
	}
}

func TestEncoderReconstructionQuality(t *testing.T) {
	e, _ := NewEncoder(64, 48, Config{QP: 20})
	seq := testSequence(4)
	for i, f := range seq {
		st, err := e.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if st.PSNR < 28 {
			t.Errorf("frame %d PSNR = %.1f dB, want >= 28 (encoder is broken)", i, st.PSNR)
		}
		if st.Bits <= 0 {
			t.Errorf("frame %d produced no bits", i)
		}
	}
}

func TestEncoderQPAffectsRate(t *testing.T) {
	bits := func(qp int) int64 {
		e, _ := NewEncoder(64, 48, Config{QP: qp})
		st, err := e.EncodeFrame(testSequence(1)[0])
		if err != nil {
			t.Fatal(err)
		}
		return st.Bits
	}
	if bits(16) <= bits(36) {
		t.Error("lower QP should produce more bits")
	}
}

func TestEncoderFrameSizeMismatch(t *testing.T) {
	e, _ := NewEncoder(64, 48, Config{})
	if _, err := e.EncodeFrame(video.NewFrame(32, 32)); err == nil {
		t.Error("mismatched frame size accepted")
	}
}

func TestForceIntraEvery(t *testing.T) {
	e, _ := NewEncoder(64, 48, Config{ForceIntraEvery: 2})
	seq := testSequence(4)
	mbs := (64 / 16) * (48 / 16)
	for i, f := range seq {
		st, err := e.EncodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 && st.Intra != mbs {
			t.Errorf("frame %d: %d intra MBs, want forced %d", i, st.Intra, mbs)
		}
	}
}

// TestReferenceFilledOnlyForSearch checks the lazy reference refill: an
// encoder whose every frame is intra never filters a reference plane, and
// one that motion-searches fills the plane once per searching frame.
func TestReferenceFilledOnlyForSearch(t *testing.T) {
	seq := testSequence(3)
	intra, _ := NewEncoder(64, 48, Config{ForceIntraEvery: 1})
	inter, _ := NewEncoder(64, 48, Config{})
	for i, f := range seq {
		if _, err := intra.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		if _, err := inter.EncodeFrame(f); err != nil {
			t.Fatal(err)
		}
		if intra.plane.pix[0] != nil {
			t.Fatalf("frame %d: an all-intra encoder filled a reference plane", i)
		}
		if got, want := inter.plane.pix[0] != nil, i > 0; got != want {
			t.Fatalf("frame %d: reference plane filled = %v, want %v", i, got, want)
		}
		if inter.planeOK {
			t.Fatalf("frame %d: the plane of the frame just coded is marked filled", i)
		}
	}
}

// TestEncodeFrameWithoutChroma checks that a frame lacking chroma planes
// encodes as one with neutral chroma, which is how video.Frame reads a
// missing plane.
func TestEncodeFrameWithoutChroma(t *testing.T) {
	seq := testSequence(3)
	bare, _ := NewEncoder(64, 48, Config{})
	neutral, _ := NewEncoder(64, 48, Config{})
	for i, f := range seq {
		n := video.NewFrame(f.W, f.H)
		copy(n.Y, f.Y)
		got, err := bare.EncodeFrame(&video.Frame{W: f.W, H: f.H, Y: f.Y})
		if err != nil {
			t.Fatal(err)
		}
		want, err := neutral.EncodeFrame(n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: stats without chroma %+v, with neutral chroma %+v", i, got, want)
		}
	}
}

func TestFunctionalBlocksCoverAllKernels(t *testing.T) {
	all := map[string]bool{}
	for _, fb := range FunctionalBlocks {
		for _, k := range fb.Kernels {
			if all[k] {
				t.Errorf("kernel %s appears in two functional blocks", k)
			}
			all[k] = true
		}
	}
	for _, k := range []string{
		KernelSAD, KernelSATD, KernelIPred, KernelDCT, KernelQuant,
		KernelIQuant, KernelIDCT, KernelHadamard, KernelMC, KernelCAVLC,
		KernelBS, KernelFilt,
	} {
		if !all[k] {
			t.Errorf("kernel %s not assigned to a functional block", k)
		}
	}
}
