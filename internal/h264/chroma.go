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

// chromaPlane is one chroma plane of a frame (Cb or Cr), read and written
// by row slices; its stride is its width w.
type chromaPlane struct {
	pix  []uint8
	w, h int
}

func planesOf(f *video.Frame) [2]chromaPlane {
	cw, ch := f.CW(), f.CH()
	return [2]chromaPlane{{f.Cb, cw, ch}, {f.Cr, cw, ch}}
}

// row returns the n samples of row y starting at x, which must lie
// inside the plane.
func (p chromaPlane) row(x, y, n int) []uint8 { return p.pix[y*p.w+x:][:n] }

// predictDC computes the DC prediction of the 8x8 block whose top-left
// chroma coordinate is (cx, cy), from the reconstructed neighbours (top
// row and left column), mirroring intra chroma DC mode. The block must lie
// inside the plane; a neighbour row or column outside it is clamped to the
// plane's edge, as video.Frame.CbAt reads it.
func (p chromaPlane) predictDC(cx, cy int) int32 {
	top := p.row(cx, max(cy-1, 0), 8)
	lx := max(cx-1, 0)
	var sum int32
	for i, v := range top {
		sum += int32(v) + int32(p.pix[(cy+i)*p.w+lx])
	}
	return (sum + 8) >> 4
}

// compensate fills dst (64 samples, row-major 8x8) with the chroma
// prediction of the macroblock at luma position (mbx, mby) displaced by
// the half-pel luma vector mv (quartered and rounded to the chroma integer
// grid). A block inside the plane is copied by rows; one that leaves it
// reads each sample clamped to the plane, so any vector works.
func (p chromaPlane) compensate(mbx, mby int, mv MV, dst []uint8) {
	cx, cy := mbx/2+mv.X/4, mby/2+mv.Y/4
	if cx >= 0 && cy >= 0 && cx+8 <= p.w && cy+8 <= p.h {
		for y := 0; y < 8; y++ {
			copy(dst[y*8:y*8+8], p.row(cx, cy+y, 8))
		}
		return
	}
	for y := 0; y < 8; y++ {
		sy := min(max(cy+y, 0), p.h-1)
		for x := 0; x < 8; x++ {
			dst[y*8+x] = p.pix[sy*p.w+min(max(cx+x, 0), p.w-1)]
		}
	}
}

// put8 writes the 8x8 block src (row-major) at chroma coordinate (cx, cy),
// which must lie inside the plane.
func (p chromaPlane) put8(cx, cy int, src []uint8) {
	for y := 0; y < 8; y++ {
		copy(p.row(cx, cy+y, 8), src[y*8:y*8+8])
	}
}

// encodeChromaMB codes both chroma planes of one macroblock: prediction
// (intra DC or motion compensation), 4x4 transforms, the 2x2 DC Hadamard
// path and reconstruction. Kernel invocations are counted into e.counts.
func (e *Encoder) encodeChromaMB(cur, rec *video.Frame, mbx, mby int, intra bool, mv MV) {
	curP := planesOf(cur)
	recP := planesOf(rec)
	var refP [2]chromaPlane
	if !intra {
		refP = planesOf(e.ref)
	}
	cx, cy := mbx/2, mby/2

	for p := 0; p < 2; p++ {
		// Prediction.
		var pred [64]int32
		if intra {
			dc := recP[p].predictDC(cx, cy)
			e.counts[kIPred]++
			for i := range pred {
				pred[i] = dc
			}
		} else {
			var buf [64]uint8
			refP[p].compensate(mbx, mby, mv, buf[:])
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
				for x, v := range curP[p].row(cx+ox, cy+oy+y, 4) {
					resid[y*4+x] = int32(v) - pred[(oy+y)*8+ox+x]
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
				row := recP[p].row(cx+ox, cy+oy+y, 4)
				for x := range row {
					v := pred[(oy+y)*8+ox+x]
					if coded[q] {
						v += blocks[q][y*4+x]
					}
					row[x] = clipPixel(v)
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
	for p := 0; p < 2; p++ {
		refP[p].compensate(mbx, mby, mv, buf[:])
		e.counts[kMC]++
		recP[p].put8(mbx/2, mby/2, buf[:])
	}
}

// FilterChromaEdge applies the deblocking filter to one 2-sample chroma
// edge segment on both planes. (x, y) is the chroma coordinate of the
// first sample on the q side. Chroma filtering reuses the luma boundary
// strength, as in the standard. It reports whether any sample changed. A
// segment whose taps would leave the plane is not filtered.
func FilterChromaEdge(rec *video.Frame, x, y int, vertical bool, bs int, qp int) bool {
	cw, ch := rec.CW(), rec.CH()
	if bs == BSNone || !edgeInside(x, y, 2, vertical, cw, ch) {
		return false
	}
	alpha, beta := alphaOf(qp), betaOf(qp)
	across, along := edgeSteps(vertical, cw)
	j := y*cw + x
	cb := filterSegment(rec.Cb, j, across, along, 2, alpha, beta, int32(bs))
	cr := filterSegment(rec.Cr, j, across, along, 2, alpha, beta, int32(bs))
	return cb || cr
}
