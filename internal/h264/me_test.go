package h264

import (
	"fmt"
	"math"
	"testing"

	"mrts/internal/video"
)

// SAD16 is the clamped per-sample oracle of refPlane.sad: the SAD between
// the 16x16 block of cur at (mbx, mby) and the block of ref displaced by
// the integer-pel vector mv, every sample read through video.Frame.At.
func SAD16(cur, ref *video.Frame, mbx, mby int, mv MV) int32 {
	var sad int32
	for y := 0; y < 16; y++ {
		cy := mby + y
		ry := mby + y + mv.Y
		for x := 0; x < 16; x++ {
			d := int32(cur.At(mbx+x, cy)) - int32(ref.At(mbx+x+mv.X, ry))
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// SAD16HalfPel is the clamped per-sample oracle of refPlane.sadHalf: the
// SAD for the half-pel vector mv, interpolating every sample with
// LumaHalfPel. Integer vectors take SAD16.
func SAD16HalfPel(cur, ref *video.Frame, mbx, mby int, mv MV) int32 {
	if mv.X&1 == 0 && mv.Y&1 == 0 {
		return SAD16(cur, ref, mbx, mby, MV{mv.X >> 1, mv.Y >> 1})
	}
	var sad int32
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			d := int32(cur.At(mbx+x, mby+y)) -
				int32(LumaHalfPel(ref, (mbx+x)<<1+mv.X, (mby+y)<<1+mv.Y))
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// oracleMotionSearch is MotionSearch on the clamped oracles, without the
// early exit: every candidate's SAD is computed in full.
func oracleMotionSearch(cur, ref *video.Frame, mbx, mby, searchRange int, skipThreshold int32) MotionResult {
	res := MotionResult{SAD: SAD16(cur, ref, mbx, mby, MV{}), Candidates: 1}
	if res.SAD <= skipThreshold {
		res.Skip = true
		return res
	}
	// better counts the candidate mv of cost s and reports whether it
	// replaces the best vector so far.
	better := func(mv, best MV, s int32) bool {
		res.Candidates++
		return s < res.SAD || (s == res.SAD && less(mv, best))
	}
	intMV := MV{}
	for dy := -searchRange; dy <= searchRange; dy += 2 {
		for dx := -searchRange; dx <= searchRange; dx += 2 {
			if mv := (MV{dx, dy}); mv != (MV{}) {
				if s := SAD16(cur, ref, mbx, mby, mv); better(mv, intMV, s) {
					res.SAD, intMV = s, mv
				}
			}
		}
	}
	center := intMV
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx != 0 || dy != 0 {
				mv := MV{center.X + dx, center.Y + dy}
				if s := SAD16(cur, ref, mbx, mby, mv); better(mv, intMV, s) {
					res.SAD, intMV = s, mv
				}
			}
		}
	}
	res.MV = MV{intMV.X * 2, intMV.Y * 2}
	hcenter := res.MV
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx != 0 || dy != 0 {
				mv := MV{hcenter.X + dx, hcenter.Y + dy}
				if s := SAD16HalfPel(cur, ref, mbx, mby, mv); better(mv, res.MV, s) {
					res.SAD, res.MV = s, mv
				}
			}
		}
	}
	return res
}

// shiftedFrames builds a reference frame with smooth aperiodic texture
// (bilinearly interpolated random grid — the SAD surface then decreases
// towards the true displacement, as for natural video) and a current frame
// whose content is the reference shifted by (dx, dy).
func shiftedFrames(w, h, dx, dy int) (cur, ref *video.Frame) {
	const cell = 8
	rng := video.NewRNG(1234)
	gw, gh := w/cell+2, h/cell+2
	grid := make([]int, gw*gh)
	for i := range grid {
		grid[i] = rng.Intn(256)
	}
	ref = video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx, gy := x/cell, y/cell
			fx, fy := x%cell, y%cell
			v00 := grid[gy*gw+gx]
			v10 := grid[gy*gw+gx+1]
			v01 := grid[(gy+1)*gw+gx]
			v11 := grid[(gy+1)*gw+gx+1]
			top := v00*(cell-fx) + v10*fx
			bot := v01*(cell-fx) + v11*fx
			ref.Set(x, y, uint8((top*(cell-fy)+bot*fy)/(cell*cell)))
		}
	}
	cur = video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			cur.Set(x, y, ref.At(x+dx, y+dy))
		}
	}
	return cur, ref
}

func TestSAD16IdenticalIsZero(t *testing.T) {
	cur, _ := shiftedFrames(64, 64, 0, 0)
	if sad := SAD16(cur, cur, 16, 16, MV{}); sad != 0 {
		t.Errorf("SAD of identical blocks = %d", sad)
	}
}

func TestSAD16Positive(t *testing.T) {
	cur, ref := shiftedFrames(64, 64, 3, 2)
	if sad := SAD16(cur, ref, 16, 16, MV{}); sad <= 0 {
		t.Errorf("SAD of shifted content = %d, want positive", sad)
	}
}

func TestMotionSearchFindsShift(t *testing.T) {
	for _, shift := range []MV{{2, 1}, {-3, 2}, {4, -4}, {0, 3}} {
		cur, ref := shiftedFrames(96, 96, shift.X, shift.Y)
		res := MotionSearch(cur, ref, 32, 32, 8, 0)
		want := MV{2 * shift.X, 2 * shift.Y} // result is in half-pel units
		if res.MV != want {
			t.Errorf("shift %v: found %v (SAD %d)", shift, res.MV, res.SAD)
		}
		if res.SAD != 0 {
			t.Errorf("shift %v: best SAD = %d, want 0", shift, res.SAD)
		}
	}
}

func TestMotionSearchEarlySkip(t *testing.T) {
	cur, ref := shiftedFrames(64, 64, 0, 0)
	res := MotionSearch(cur, ref, 16, 16, 8, 100)
	if !res.Skip {
		t.Error("static block not skipped")
	}
	if res.Candidates != 1 {
		t.Errorf("skip path evaluated %d candidates, want 1", res.Candidates)
	}
	if res.MV != (MV{}) {
		t.Errorf("skip MV = %v, want zero", res.MV)
	}
}

func TestMotionSearchCandidateCount(t *testing.T) {
	cur, ref := shiftedFrames(96, 96, 5, 5)
	res := MotionSearch(cur, ref, 32, 32, 8, 0)
	// 1 zero-MV + 9x9 coarse grid minus centre + up to 8 integer and 8
	// half-pel refinement candidates.
	max := int64(1 + 80 + 8 + 8)
	if res.Candidates < 10 || res.Candidates > max {
		t.Errorf("candidates = %d, want in [10, %d]", res.Candidates, max)
	}
}

func TestMotionSearchDeterministicTieBreak(t *testing.T) {
	// A completely flat pair of frames: every candidate has SAD equal to
	// zero; the search must deterministically keep the zero MV (skip).
	cur := video.NewFrame(64, 64)
	ref := video.NewFrame(64, 64)
	res := MotionSearch(cur, ref, 16, 16, 4, 0)
	if res.MV != (MV{}) {
		t.Errorf("flat frames: MV = %v, want {0 0} by tie-break", res.MV)
	}
}

func TestMVLess(t *testing.T) {
	if !less(MV{1, 0}, MV{2, 0}) {
		t.Error("shorter vector should order first")
	}
	if !less(MV{0, -1}, MV{0, 1}) {
		t.Error("equal length: lexicographic order")
	}
	if less(MV{1, 1}, MV{1, 1}) {
		t.Error("equal vectors are not less")
	}
}

func TestMotionCompensateInteger(t *testing.T) {
	_, ref := shiftedFrames(64, 64, 0, 0)
	var buf [64]uint8
	mv := MV{6, -4} // integer displacement (3, -2) in half-pel units
	for q := 0; q < 4; q++ {
		MotionCompensate(ref, 16, 16, q, mv, buf[:])
		ox, oy := (q&1)*8, (q>>1)*8
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				want := ref.At(16+ox+x+3, 16+oy+y-2)
				if buf[y*8+x] != want {
					t.Fatalf("quadrant %d sample (%d,%d) = %d, want %d", q, x, y, buf[y*8+x], want)
				}
			}
		}
	}
}

func TestMotionCompensateHalfPel(t *testing.T) {
	_, ref := shiftedFrames(64, 64, 0, 0)
	var buf [64]uint8
	mv := MV{1, 0} // horizontal half position
	MotionCompensate(ref, 16, 16, 0, mv, buf[:])
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			want := LumaHalfPel(ref, (16+x)<<1+1, (16+y)<<1)
			if buf[y*8+x] != want {
				t.Fatalf("sample (%d,%d) = %d, want %d", x, y, buf[y*8+x], want)
			}
		}
	}
}

func TestMotionSearchFindsHalfPelShift(t *testing.T) {
	// Build cur as the exact half-pel interpolation of ref displaced by
	// (1, 0) half-pel: the search must find that vector with SAD 0.
	_, ref := shiftedFrames(96, 96, 0, 0)
	cur := video.NewFrame(96, 96)
	for y := 0; y < 96; y++ {
		for x := 0; x < 96; x++ {
			cur.Set(x, y, LumaHalfPel(ref, x<<1+1, y<<1))
		}
	}
	res := MotionSearch(cur, ref, 32, 32, 8, 0)
	if res.MV != (MV{1, 0}) {
		t.Errorf("found %v (SAD %d), want half-pel {1 0}", res.MV, res.SAD)
	}
	if res.SAD != 0 {
		t.Errorf("SAD = %d, want 0", res.SAD)
	}
}

// randomPair returns a seeded reference frame and a current frame that is
// the reference displaced by a random vector plus noise. The content kind
// rotates with the seed: white noise (drives the 6-tap filter into both
// clips), smooth texture (a real SAD minimum to find) and a few flat
// levels (many equal-cost candidates, so the tie-break decides).
func randomPair(w, h int, seed uint64) (cur, ref *video.Frame) {
	rng := video.NewRNG(seed)
	ref = video.NewFrame(w, h)
	switch seed % 3 {
	case 0:
		for i := range ref.Y {
			ref.Y[i] = uint8(rng.Intn(256))
		}
	case 1:
		_, ref = shiftedFrames(w, h, 0, 0)
		for i := range ref.Y {
			ref.Y[i] = uint8(int(ref.Y[i]) ^ int(seed&0x3f))
		}
	default:
		levels := [4]uint8{0, 16, 240, 255}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				ref.Set(x, y, levels[(x/5+y/3+int(seed))%4])
			}
		}
	}
	dx, dy := rng.Intn(9)-4, rng.Intn(9)-4
	cur = video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := int(ref.At(x+dx, y+dy)) + rng.Intn(7) - 3
			cur.Set(x, y, uint8(min(max(v, 0), 255)))
		}
	}
	return cur, ref
}

// TestPaddedMatchesClampedOracle checks the edge-extended reference against
// the clamped per-sample oracles on seeded random frames, at every
// macroblock including all four edges: every integer SAD within the
// search reach, the half-pel SADs at random inside it and, on the frame's
// edge macroblocks, on the reach's outer ring (the samples furthest into
// the margin), the full
// MotionSearch result, and every MotionCompensate quadrant. A failing
// subtest names its seed; rerun it alone with -run.
func TestPaddedMatchesClampedOracle(t *testing.T) {
	sizes := [][2]int{{16, 16}, {48, 32}, {176, 144}}
	ranges := []int{0, 1, 2, 7, 8, 16}
	var seed uint64
	for _, sz := range sizes {
		reps := 2
		if sz[0] > 64 {
			reps = 1 // 99 macroblocks per frame already
		}
		for _, r := range ranges {
			for rep := 0; rep < reps; rep++ {
				seed++
				w, h, r, seed := sz[0], sz[1], r, seed
				t.Run(fmt.Sprintf("%dx%d/r%d/seed%d", w, h, r, seed), func(t *testing.T) {
					checkPaddedAgainstOracle(t, w, h, r, seed)
				})
			}
		}
	}
}

func checkPaddedAgainstOracle(t *testing.T, w, h, r int, seed uint64) {
	cur, ref := randomPair(w, h, seed)
	var p refPlane
	p.fill(ref, searchMargin(r))
	tab := newHalfPelTable(ref, r+2)
	rng := video.NewRNG(seed ^ 0xfeed)
	reach := r + 1    // integer vectors: coarse ±r, then ±1
	hreach := 2*r + 3 // half-pel vectors: ±1 around an integer optimum
	for mby := 0; mby < h; mby += 16 {
		for mbx := 0; mbx < w; mbx += 16 {
			var blk [256]uint8
			for y := 0; y < 16; y++ {
				copy(blk[y*16:], cur.Y[(mby+y)*w+mbx:][:16])
			}
			for dy := -reach; dy <= reach; dy++ {
				for dx := -reach; dx <= reach; dx++ {
					mv := MV{dx, dy}
					if got, want := p.sad(&blk, mbx+dx, mby+dy, math.MaxInt32), tab.sad(cur, mbx, mby, MV{2 * dx, 2 * dy}); got != want {
						t.Fatalf("MB (%d,%d) integer %v: sad %d, oracle %d", mbx, mby, mv, got, want)
					}
				}
			}
			// The table stands in for SAD16HalfPel; check it does at the
			// reach's corners, the samples furthest from the frame.
			for _, mv := range []MV{{-hreach, -hreach}, {hreach, -hreach}, {-hreach, hreach}, {hreach, hreach}} {
				if got, want := tab.sad(cur, mbx, mby, mv), SAD16HalfPel(cur, ref, mbx, mby, mv); got != want {
					t.Fatalf("MB (%d,%d) half-pel %v: table %d, SAD16HalfPel %d", mbx, mby, mv, got, want)
				}
			}
			var half []MV
			if mbx == 0 || mby == 0 || mbx+16 == w || mby+16 == h {
				for i := -hreach; i <= hreach; i++ {
					half = append(half, MV{i, -hreach}, MV{i, hreach}, MV{-hreach, i}, MV{hreach, i})
				}
			}
			for i := 0; i < 16; i++ {
				half = append(half, MV{rng.Intn(2*hreach+1) - hreach, rng.Intn(2*hreach+1) - hreach})
			}
			for _, mv := range half {
				if mv.IsInteger() {
					continue
				}
				if got, want := p.sadHalf(&blk, mbx, mby, mv, math.MaxInt32), tab.sad(cur, mbx, mby, mv); got != want {
					t.Fatalf("MB (%d,%d) half-pel %v: sad %d, oracle %d", mbx, mby, mv, got, want)
				}
			}
			for _, skip := range []int32{0, int32(rng.Intn(4000))} {
				got := p.search(cur, mbx, mby, r, skip)
				want := oracleMotionSearch(cur, ref, mbx, mby, r, skip)
				if got != want {
					t.Fatalf("MB (%d,%d) skip %d: search %+v, oracle %+v", mbx, mby, skip, got, want)
				}
				for _, mv := range []MV{got.MV, half[rng.Intn(len(half))]} {
					for q := 0; q < 4; q++ {
						var g, o [64]uint8
						p.compensate(mbx, mby, q, mv, g[:])
						MotionCompensate(ref, mbx, mby, q, mv, o[:])
						if g != o {
							t.Fatalf("MB (%d,%d) mv %v quadrant %d: compensate %v, oracle %v", mbx, mby, mv, q, g, o)
						}
					}
				}
			}
		}
	}
}

// halfPelTable holds LumaHalfPel of a reference frame at every integer
// position up to e samples outside it, one image per half-pel phase, so
// the oracle SAD of any vector within that reach is a table walk.
type halfPelTable struct {
	img       [4][]uint8 // indexed by phase fx + 2*fy
	stride, e int
}

func newHalfPelTable(ref *video.Frame, e int) *halfPelTable {
	t := &halfPelTable{stride: ref.W + 2*e, e: e}
	for f := range t.img {
		img := make([]uint8, t.stride*(ref.H+2*e))
		for y := -e; y < ref.H+e; y++ {
			for x := -e; x < ref.W+e; x++ {
				img[(y+e)*t.stride+x+e] = LumaHalfPel(ref, 2*x+f&1, 2*y+f>>1)
			}
		}
		t.img[f] = img
	}
	return t
}

// sad is SAD16HalfPel(cur, ref, mbx, mby, mv) read from the table.
func (t *halfPelTable) sad(cur *video.Frame, mbx, mby int, mv MV) int32 {
	img := t.img[mv.X&1+2*(mv.Y&1)]
	var s int32
	for y := 0; y < 16; y++ {
		row := (mby+y+mv.Y>>1+t.e)*t.stride + mbx + mv.X>>1 + t.e
		for x := 0; x < 16; x++ {
			d := int32(cur.At(mbx+x, mby+y)) - int32(img[row+x])
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}
