package h264

import (
	"encoding/binary"
	"math"

	"mrts/internal/video"
)

// MV is a motion vector in half-pel units: even components address integer
// sample positions, odd components the 6-tap interpolated half positions.
type MV struct{ X, Y int }

// IsInteger reports whether both components are integer-pel.
func (v MV) IsInteger() bool { return v.X&1 == 0 && v.Y&1 == 0 }

// refPlane is a reference luma plane edge-extended by margin replicated
// samples on every side, with its three half-pel planes filtered once:
// pix[f] holds the samples of half-pel phase f = fx + 2*fy (integer,
// horizontal, vertical, centre), all with the same stride. For the
// integer plane and x, y in [-margin, W+margin) × [-margin, H+margin),
// pix[0][off(x, y)] equals video.Frame.At(x, y), the clamped read H.264
// edge extension prescribes. For the half-pel planes and x, y in
// [2-margin, W+margin-3) × [2-margin, H+margin-3), pix[f][off(x, y)]
// equals LumaHalfPel(ref, 2x+fx, 2y+fy). Motion search and compensation
// read all four by direct row slicing; x264 keeps its reference frames
// the same way (x264_frame_filter).
type refPlane struct {
	pix    [4][]uint8
	stride int
	margin int
}

// searchMargin is the edge extension a motion search of the given range
// reads within: integer vectors reach ±(r+1) after the ±1 refinement, a
// half-pel vector's integer part lies up to one sample further left, and
// the 6-tap filter reads 2 samples left and 3 right of that.
func searchMargin(r int) int { return max(r, 0) + 4 }

// fill rebuilds the four planes from f's luma with the given margin,
// reusing the planes' buffers. The half-pel planes are filled where their
// six taps lie inside the integer plane; the centre plane runs the
// vertical filter over the clipped horizontal plane, the two-stage order
// LumaHalfPel uses.
func (p *refPlane) fill(f *video.Frame, margin int) {
	p.margin = margin
	s := f.W + 2*margin
	rows := f.H + 2*margin
	p.stride = s
	n := s * rows
	for i := range p.pix {
		if cap(p.pix[i]) < n {
			p.pix[i] = make([]uint8, n)
		}
		p.pix[i] = p.pix[i][:n]
	}
	full, hp, vp, cp := p.pix[0], p.pix[1], p.pix[2], p.pix[3]
	for y := -margin; y < f.H+margin; y++ {
		sy := min(max(y, 0), f.H-1)
		src := f.Y[sy*f.W : (sy+1)*f.W]
		row := full[(y+margin)*s : (y+margin+1)*s]
		copy(row[margin:], src)
		left, right := src[0], src[f.W-1]
		for i := 0; i < margin; i++ {
			row[i] = left
			row[margin+f.W+i] = right
		}
		hTaps(hp[(y+margin)*s+2:(y+margin+1)*s-3], row)
	}
	for r := 2; r < rows-3; r++ {
		vTaps(vp[r*s:(r+1)*s], full, r*s, s)
		vTaps(cp[r*s+2:(r+1)*s-3], hp, r*s+2, s)
	}
}

// off returns the index of sample (x, y) in each of pix's planes.
func (p *refPlane) off(x, y int) int { return (y+p.margin)*p.stride + x + p.margin }

// hTaps sets d[x] to the horizontal 6-tap half position between src[x+2]
// and src[x+3].
func hTaps(d, src []uint8) {
	n := len(d)
	s0, s1, s2 := src[0:n], src[1:n+1], src[2:n+2]
	s3, s4, s5 := src[3:n+3], src[4:n+4], src[5:n+5]
	for x := range d {
		d[x] = uint8(sixTap(int32(s0[x]), int32(s1[x]), int32(s2[x]), int32(s3[x]), int32(s4[x]), int32(s5[x])))
	}
}

// vTaps sets d[x] to the vertical 6-tap half position between src[i+x]
// and src[i+x+s] in a plane of stride s.
func vTaps(d, src []uint8, i, s int) {
	n := len(d)
	r0, r1, r2 := src[i-2*s:][:n], src[i-s:][:n], src[i:][:n]
	r3, r4, r5 := src[i+s:][:n], src[i+2*s:][:n], src[i+3*s:][:n]
	for x := range d {
		d[x] = uint8(sixTap(int32(r0[x]), int32(r1[x]), int32(r2[x]), int32(r3[x]), int32(r4[x]), int32(r5[x])))
	}
}

// sad returns the sum of absolute differences between the 16x16 block blk
// and the integer-pel block of p at (x, y), the data-dominant "sad" kernel
// of the motion-estimation functional block. It stops after the first row
// whose running total exceeds limit and returns that partial total, which
// is then also above limit.
func (p *refPlane) sad(blk *[256]uint8, x, y int, limit int32) int32 {
	return p.sadHalf(blk, x, y, MV{}, limit)
}

// sadHalf is sad for the block at (x, y) displaced by the half-pel vector
// mv, read from the half-pel plane of mv's phase.
func (p *refPlane) sadHalf(blk *[256]uint8, x, y int, mv MV, limit int32) int32 {
	pix := p.pix[mv.X&1+2*(mv.Y&1)]
	o := p.off(x+(mv.X>>1), y+(mv.Y>>1))
	var s int32
	for r := 0; r < 16; r++ {
		s += rowSAD(blk[r*16:r*16+16], pix[o+r*p.stride:])
		if s > limit {
			break
		}
	}
	return s
}

// SWAR constants for rowSAD: the low byte of every 16-bit lane, the lane
// bias 256 and a 1 in every lane.
const (
	laneLo   = 0x00ff00ff00ff00ff
	laneBias = 0x0100010001000100
	laneOne  = 0x0001000100010001
)

// rowSAD returns the SAD of one 16-sample row, 8 samples per uint64: the
// even and odd bytes of each word are split into four 16-bit lanes,
// differenced and summed lane-wise, and one multiply adds the lanes.
func rowSAD(a, b []uint8) int32 {
	a, b = a[:16:16], b[:16:16]
	a0, a1 := binary.LittleEndian.Uint64(a[:8]), binary.LittleEndian.Uint64(a[8:16])
	b0, b1 := binary.LittleEndian.Uint64(b[:8]), binary.LittleEndian.Uint64(b[8:16])
	s := laneAbsDiff(a0&laneLo, b0&laneLo) + laneAbsDiff(a0>>8&laneLo, b0>>8&laneLo) +
		laneAbsDiff(a1&laneLo, b1&laneLo) + laneAbsDiff(a1>>8&laneLo, b1>>8&laneLo)
	return int32(s * laneOne >> 48)
}

// laneAbsDiff returns |x - y| in each 16-bit lane of two words holding
// one byte per lane. Every lane of x is biased by 256 first, so v = 256 +
// x - y lies in [1, 511] and no borrow crosses a lane; bit 8 of v is
// clear exactly where x < y, and there |x - y| = 256 - v = (v ^ 0xff) + 1.
func laneAbsDiff(x, y uint64) uint64 {
	v := (x | laneBias) - y
	neg := (v >> 8 & laneOne) ^ laneOne
	return (v&laneLo ^ neg*0xff) + neg
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
// integer-pel refinement, and a ±1 half-pel refinement on the 6-tap
// interpolated half-pel planes. A zero-MV early-skip check makes the kernel count
// content-dependent: static areas cost one SAD, moving areas the full
// search. The result vector is in half-pel units. MotionSearch
// edge-extends and filters ref for this one call; the encoder keeps one
// filtered reference per frame instead.
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
// vectors a search within p's margin can return: a copy of 8 rows from
// the plane of mv's phase.
func (p *refPlane) compensate(mbx, mby, q int, mv MV, dst []uint8) {
	pix := p.pix[mv.X&1+2*(mv.Y&1)]
	o := p.off(mbx+(q&1)*8+(mv.X>>1), mby+(q>>1)*8+(mv.Y>>1))
	for y := 0; y < 8; y++ {
		copy(dst[y*8:y*8+8], pix[o+y*p.stride:])
	}
}
