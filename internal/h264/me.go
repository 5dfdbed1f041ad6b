package h264

import (
	"math"

	"mrts/internal/video"
)

// MV is a motion vector in half-pel units: even components address integer
// sample positions, odd components the 6-tap interpolated half positions.
type MV struct{ X, Y int }

// IsInteger reports whether both components are integer-pel.
func (v MV) IsInteger() bool { return v.X&1 == 0 && v.Y&1 == 0 }

// refPlane is a reference luma plane edge-extended by margin replicated
// samples on every side: for x, y in [-margin, W+margin) ×
// [-margin, H+margin), pix[off(x, y)] equals video.Frame.At(x, y), the
// clamped read H.264 edge extension prescribes. Motion search and
// compensation read it by direct row slicing instead of clamping every
// sample.
type refPlane struct {
	pix    []uint8
	stride int
	margin int
}

// searchMargin is the edge extension a motion search of the given range
// reads within: integer vectors reach ±(r+1) after the ±1 refinement, a
// half-pel vector's integer part lies up to one sample further left, and
// the 6-tap filter reads 2 samples left and 3 right of that.
func searchMargin(r int) int { return max(r, 0) + 4 }

// fill rebuilds the plane from f's luma with the given margin, reusing the
// plane's buffer.
func (p *refPlane) fill(f *video.Frame, margin int) {
	p.margin = margin
	p.stride = f.W + 2*margin
	n := p.stride * (f.H + 2*margin)
	if cap(p.pix) < n {
		p.pix = make([]uint8, n)
	}
	p.pix = p.pix[:n]
	for y := -margin; y < f.H+margin; y++ {
		sy := min(max(y, 0), f.H-1)
		src := f.Y[sy*f.W : (sy+1)*f.W]
		row := p.pix[(y+margin)*p.stride : (y+margin+1)*p.stride]
		copy(row[margin:], src)
		left, right := src[0], src[f.W-1]
		for i := 0; i < margin; i++ {
			row[i] = left
			row[margin+f.W+i] = right
		}
	}
}

// off returns the index of sample (x, y) in pix.
func (p *refPlane) off(x, y int) int { return (y+p.margin)*p.stride + x + p.margin }

// predict fills dst (w×h, row-major) with the block at (x0, y0) displaced
// by the half-pel vector mv, sample for sample what LumaHalfPel returns.
// Integer vectors copy rows; a horizontal or vertical half position runs
// one 6-tap pass; the centre position runs the horizontal pass over the
// h+5 rows the vertical taps need, then the vertical pass over those
// (clipped) intermediate values — the two-stage order LumaHalfPel uses.
func (p *refPlane) predict(dst []uint8, x0, y0 int, mv MV, w, h int) {
	o := p.off(x0+(mv.X>>1), y0+(mv.Y>>1))
	s := p.stride
	switch {
	case mv.X&1 == 0 && mv.Y&1 == 0:
		for y := 0; y < h; y++ {
			copy(dst[y*w:(y+1)*w], p.pix[o+y*s:])
		}
	case mv.Y&1 == 0:
		for y := 0; y < h; y++ {
			hTaps(dst[y*w:(y+1)*w], p.pix[o+y*s-2:])
		}
	case mv.X&1 == 0:
		for y := 0; y < h; y++ {
			d := dst[y*w : (y+1)*w]
			for x := range d {
				d[x] = vTap(p.pix, o+y*s+x, s)
			}
		}
	default:
		var rows [21 * 16]uint8 // (h+5)×w horizontal taps, h, w ≤ 16
		for r := 0; r < h+5; r++ {
			hTaps(rows[r*w:(r+1)*w], p.pix[o+(r-2)*s-2:])
		}
		for y := 0; y < h; y++ {
			d := dst[y*w : (y+1)*w]
			for x := range d {
				d[x] = vTap(rows[:(h+5)*w], (y+2)*w+x, w)
			}
		}
	}
}

// hTaps sets d[x] to the horizontal 6-tap half position between src[x+2]
// and src[x+3].
func hTaps(d, src []uint8) {
	src = src[:len(d)+5]
	for x := range d {
		t := src[x : x+6 : x+6]
		d[x] = uint8(sixTap(int32(t[0]), int32(t[1]), int32(t[2]), int32(t[3]), int32(t[4]), int32(t[5])))
	}
}

// vTap returns the vertical 6-tap half position between pix[i] and
// pix[i+s] in a plane of stride s.
func vTap(pix []uint8, i, s int) uint8 {
	return uint8(sixTap(int32(pix[i-2*s]), int32(pix[i-s]), int32(pix[i]),
		int32(pix[i+s]), int32(pix[i+2*s]), int32(pix[i+3*s])))
}

// sad returns the sum of absolute differences between the 16x16 block blk
// and the integer-pel block of p at (x, y), the data-dominant "sad" kernel
// of the motion-estimation functional block. It stops after the first row
// whose running total exceeds limit and returns that partial total, which
// is then also above limit.
func (p *refPlane) sad(blk *[256]uint8, x, y int, limit int32) int32 {
	o := p.off(x, y)
	var s int32
	for r := 0; r < 16; r++ {
		s += rowSAD(blk[r*16:r*16+16], p.pix[o+r*p.stride:])
		if s > limit {
			break
		}
	}
	return s
}

// sadHalf is sad for the block at (x, y) displaced by the half-pel vector
// mv, interpolated first.
func (p *refPlane) sadHalf(blk *[256]uint8, x, y int, mv MV, limit int32) int32 {
	var pred [256]uint8
	p.predict(pred[:], x, y, mv, 16, 16)
	var s int32
	for r := 0; r < 16; r++ {
		s += rowSAD(blk[r*16:r*16+16], pred[r*16:])
		if s > limit {
			break
		}
	}
	return s
}

// rowSAD returns the SAD of one 16-sample row.
func rowSAD(a, b []uint8) int32 {
	a, b = a[:16:16], b[:16:16]
	var s int32
	for i := range a {
		d := int32(a[i]) - int32(b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// MotionResult is the outcome of the search for one macroblock.
type MotionResult struct {
	// MV is the best vector in half-pel units.
	MV MV
	// SAD is the best matching cost.
	SAD int32
	// Candidates is the number of SAD kernel invocations spent.
	Candidates int64
	// Skip reports that the zero-MV cost was below the skip threshold
	// and the search terminated early.
	Skip bool
}

// MotionSearch finds the best motion vector for the macroblock at
// (mbx, mby), which must lie inside cur, with a three-stage search: a
// coarse search on a stride-2 integer grid inside ±searchRange, a ±1
// integer-pel refinement, and a ±1 half-pel refinement with on-the-fly
// 6-tap interpolation. A zero-MV early-skip check makes the kernel count
// content-dependent: static areas cost one SAD, moving areas the full
// search. The result vector is in half-pel units. MotionSearch
// edge-extends ref for this one call; the encoder keeps one extended
// reference per frame instead.
func MotionSearch(cur, ref *video.Frame, mbx, mby, searchRange int, skipThreshold int32) MotionResult {
	var p refPlane
	p.fill(ref, searchMargin(searchRange))
	return p.search(cur, mbx, mby, searchRange, skipThreshold)
}

// search is MotionSearch on the edge-extended reference p, whose margin
// must be at least searchMargin(searchRange).
//
// Every candidate after the zero vector stops its SAD once a row total
// exceeds the best cost so far. A cut-off cost is strictly greater than
// the best, so the s < best || (s == best && less) rule never picks it:
// the chosen vector, its cost and the candidate count are those of the
// complete search.
func (p *refPlane) search(cur *video.Frame, mbx, mby, searchRange int, skipThreshold int32) MotionResult {
	var blk [256]uint8
	for y := 0; y < 16; y++ {
		i := (mby+y)*cur.W + mbx
		copy(blk[y*16:y*16+16], cur.Y[i:i+16])
	}
	res := MotionResult{}
	best := p.sad(&blk, mbx, mby, math.MaxInt32)
	res.Candidates++
	res.SAD = best
	if best <= skipThreshold {
		res.Skip = true
		return res
	}
	// Coarse stride-2 integer search.
	intMV := MV{}
	for dy := -searchRange; dy <= searchRange; dy += 2 {
		for dx := -searchRange; dx <= searchRange; dx += 2 {
			if dx == 0 && dy == 0 {
				continue
			}
			s := p.sad(&blk, mbx+dx, mby+dy, res.SAD)
			res.Candidates++
			if s < res.SAD || (s == res.SAD && less(MV{dx, dy}, intMV)) {
				res.SAD = s
				intMV = MV{dx, dy}
			}
		}
	}
	// ±1 integer refinement.
	center := intMV
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			mv := MV{center.X + dx, center.Y + dy}
			s := p.sad(&blk, mbx+mv.X, mby+mv.Y, res.SAD)
			res.Candidates++
			if s < res.SAD || (s == res.SAD && less(mv, intMV)) {
				res.SAD = s
				intMV = mv
			}
		}
	}
	// ±1 half-pel refinement around the integer optimum.
	res.MV = MV{intMV.X * 2, intMV.Y * 2}
	hcenter := res.MV
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			mv := MV{hcenter.X + dx, hcenter.Y + dy}
			s := p.sadHalf(&blk, mbx, mby, mv, res.SAD)
			res.Candidates++
			if s < res.SAD || (s == res.SAD && less(mv, res.MV)) {
				res.SAD = s
				res.MV = mv
			}
		}
	}
	return res
}

// less orders motion vectors for deterministic tie-breaking (prefer short,
// then lexicographic).
func less(a, b MV) bool {
	la := a.X*a.X + a.Y*a.Y
	lb := b.X*b.X + b.Y*b.Y
	if la != lb {
		return la < lb
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.X < b.X
}

// MotionCompensate fills dst (64 samples, row-major) with the 8x8 quadrant
// q (0..3) of the macroblock at (mbx, mby) predicted from ref displaced by
// the half-pel vector mv. Integer vectors copy directly; fractional ones
// run the 6-tap interpolation. This is the "mc" kernel; it is invoked once
// per 8x8 quadrant. It clamps every read, so any vector works — the
// decoder passes whatever the stream carries; the encoder, whose vectors
// stay inside its search range, runs refPlane.compensate.
func MotionCompensate(ref *video.Frame, mbx, mby int, q int, mv MV, dst []uint8) {
	ox := (q & 1) * 8
	oy := (q >> 1) * 8
	if mv.IsInteger() {
		ix, iy := mv.X>>1, mv.Y>>1
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				dst[y*8+x] = ref.At(mbx+ox+x+ix, mby+oy+y+iy)
			}
		}
		return
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			dst[y*8+x] = LumaHalfPel(ref, (mbx+ox+x)<<1+mv.X, (mby+oy+y)<<1+mv.Y)
		}
	}
}

// compensate is MotionCompensate on the edge-extended reference, for
// vectors a search within p's margin can return.
func (p *refPlane) compensate(mbx, mby, q int, mv MV, dst []uint8) {
	p.predict(dst[:64], mbx+(q&1)*8, mby+(q>>1)*8, mv, 8, 8)
}
