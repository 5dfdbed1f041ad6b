package h264

import "mrts/internal/video"

// 4:2:0 chroma coding. Each macroblock covers one 8x8 block per chroma
// plane: four 4x4 residual transforms plus the 2x2 DC Hadamard of the
// standard's chroma path. Chroma prediction is DC for intra macroblocks
// and motion compensation with the halved luma vector for inter ones.
// The invocations feed the same kernels as luma (dct, quant, cavlc, ...):
// the reconfigurable data paths process 4x4 blocks regardless of plane.

// Block2 is a 2x2 chroma DC block.
type Block2 [4]int32

// Hadamard2 applies the 2x2 Hadamard transform (self-inverse up to a
// factor 4) used for the chroma DC coefficients.
func Hadamard2(b *Block2) {
	s0 := b[0] + b[1]
	d0 := b[0] - b[1]
	s1 := b[2] + b[3]
	d1 := b[2] - b[3]
	b[0] = s0 + s1
	b[1] = d0 + d1
	b[2] = s0 - s1
	b[3] = d0 - d1
}

// QuantDC2 quantises a 2x2 chroma DC block and reports non-zero levels.
func QuantDC2(b *Block2, qp int) int {
	qbits := uint(16 + qp/6)
	f := int64(1) << qbits / 3
	m := int64(mf[0][qp%6])
	nz := 0
	for i := range b {
		c := int64(b[i])
		neg := c < 0
		if neg {
			c = -c
		}
		level := int32((c*m + f) >> qbits)
		if level != 0 {
			nz++
		}
		if neg {
			level = -level
		}
		b[i] = level
	}
	return nz
}

// chromaPlane abstracts Cb vs Cr access on a frame.
type chromaPlane struct {
	at  func(x, y int) uint8
	set func(x, y int, v uint8)
}

func planesOf(f *video.Frame) [2]chromaPlane {
	return [2]chromaPlane{
		{at: f.CbAt, set: f.CbSet},
		{at: f.CrAt, set: f.CrSet},
	}
}

// PredictChromaDC computes the DC prediction of the 8x8 chroma block whose
// top-left chroma coordinate is (cx, cy), from the reconstructed
// neighbours (top row and left column), mirroring intra chroma DC mode.
func PredictChromaDC(at func(x, y int) uint8, cx, cy int) int32 {
	var sum int32
	for i := 0; i < 8; i++ {
		sum += int32(at(cx+i, cy-1))
		sum += int32(at(cx-1, cy+i))
	}
	return (sum + 8) >> 4
}

// MotionCompensateChroma fills dst (64 samples, row-major 8x8) with the
// chroma prediction of the macroblock at luma position (mbx, mby)
// displaced by the half-pel luma vector mv (quartered and rounded to the
// chroma integer grid).
func MotionCompensateChroma(at func(x, y int) uint8, mbx, mby int, mv MV, dst []uint8) {
	cx, cy := mbx/2+mv.X/4, mby/2+mv.Y/4
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			dst[y*8+x] = at(cx+x, cy+y)
		}
	}
}

// encodeChromaMB codes both chroma planes of one macroblock: prediction
// (intra DC or motion compensation), 4x4 transforms, the 2x2 DC Hadamard
// path and reconstruction. Kernel invocations are counted into e.counts.
func (e *Encoder) encodeChromaMB(cur, rec *video.Frame, mbx, mby int, intra bool, mv MV) {
	curP := planesOf(cur)
	recP := planesOf(rec)
	cx, cy := mbx/2, mby/2

	for p := 0; p < 2; p++ {
		// Prediction.
		var pred [64]int32
		if intra {
			dc := PredictChromaDC(recP[p].at, cx, cy)
			e.counts[kIPred]++
			for i := range pred {
				pred[i] = dc
			}
		} else {
			var buf [64]uint8
			MotionCompensateChroma(planesOf(e.ref)[p].at, mbx, mby, mv, buf[:])
			e.counts[kMC]++
			for i, v := range buf {
				pred[i] = int32(v)
			}
		}

		// Four 4x4 residual transforms + DC collection.
		var dc Block2
		blocks := [4]Block4{}
		coded := [4]bool{}
		for q := 0; q < 4; q++ {
			ox, oy := (q&1)*4, (q>>1)*4
			var resid Block4
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					resid[y*4+x] = int32(curP[p].at(cx+ox+x, cy+oy+y)) - pred[(oy+y)*8+ox+x]
				}
			}
			DCT4(&resid)
			e.counts[kDCT]++
			dc[q] = resid[0]
			nz := Quant(&resid, e.cfg.QP, intra)
			e.counts[kQuant]++
			writeBlock(&e.bw, &resid)
			if nz > 0 {
				e.counts[kCAVLC]++
				Dequant(&resid, e.cfg.QP)
				e.counts[kIQuant]++
				IDCT4(&resid)
				e.counts[kIDCT]++
				coded[q] = true
				blocks[q] = resid
			}
		}

		// Chroma DC path: 2x2 Hadamard, quantisation, serialisation.
		Hadamard2(&dc)
		e.counts[kHadamard]++
		if nz := QuantDC2(&dc, e.cfg.QP); nz > 0 {
			e.counts[kCAVLC]++
		}
		e.writeChromaDC(&dc)

		// Reconstruction.
		for q := 0; q < 4; q++ {
			ox, oy := (q&1)*4, (q>>1)*4
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					v := pred[(oy+y)*8+ox+x]
					if coded[q] {
						v += blocks[q][y*4+x]
					}
					recP[p].set(cx+ox+x, cy+oy+y, clipPixel(v))
				}
			}
		}
	}
}

// copyChromaMB motion-compensates both chroma planes of a skipped
// macroblock straight into the reconstruction.
func (e *Encoder) copyChromaMB(rec *video.Frame, mbx, mby int, mv MV) {
	refP := planesOf(e.ref)
	recP := planesOf(rec)
	var buf [64]uint8
	cx, cy := mbx/2, mby/2
	for p := 0; p < 2; p++ {
		MotionCompensateChroma(refP[p].at, mbx, mby, mv, buf[:])
		e.counts[kMC]++
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				recP[p].set(cx+x, cy+y, buf[y*8+x])
			}
		}
	}
}

// FilterChromaEdge applies the deblocking filter to one 2-sample chroma
// edge segment on both planes. (x, y) is the chroma coordinate of the
// first sample on the q side. Chroma filtering reuses the luma boundary
// strength, as in the standard. It reports whether any sample changed.
func FilterChromaEdge(rec *video.Frame, x, y int, vertical bool, bs int, qp int) bool {
	if bs == BSNone {
		return false
	}
	alpha := alphaOf(qp)
	beta := betaOf(qp)
	if alpha == 0 {
		return false
	}
	tc0 := int32(bs)
	planes := planesOf(rec)
	changed := false
	for p := 0; p < 2; p++ {
		for i := 0; i < 2; i++ {
			var p1, p0, q0, q1 int32
			var setP0, setQ0 func(uint8)
			if vertical {
				yy := y + i
				p1 = int32(planes[p].at(x-2, yy))
				p0 = int32(planes[p].at(x-1, yy))
				q0 = int32(planes[p].at(x, yy))
				q1 = int32(planes[p].at(x+1, yy))
				pp, px := planes[p], x
				setP0 = func(v uint8) { pp.set(px-1, yy, v) }
				setQ0 = func(v uint8) { pp.set(px, yy, v) }
			} else {
				xx := x + i
				p1 = int32(planes[p].at(xx, y-2))
				p0 = int32(planes[p].at(xx, y-1))
				q0 = int32(planes[p].at(xx, y))
				q1 = int32(planes[p].at(xx, y+1))
				pp, py := planes[p], y
				setP0 = func(v uint8) { pp.set(xx, py-1, v) }
				setQ0 = func(v uint8) { pp.set(xx, py, v) }
			}
			d0 := abs32(q0 - p0)
			if d0 >= alpha || abs32(p1-p0) >= beta || abs32(q1-q0) >= beta {
				continue
			}
			delta := clip3(((q0-p0)<<2+(p1-q1)+4)>>3, -tc0, tc0)
			if delta == 0 {
				continue
			}
			setP0(clipPixel(p0 + delta))
			setQ0(clipPixel(q0 - delta))
			changed = true
		}
	}
	return changed
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
