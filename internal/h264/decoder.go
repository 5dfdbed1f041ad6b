package h264

import (
	"fmt"

	"mrts/internal/video"
)

// Decoder reconstructs frames from the encoder's bitstream. It mirrors the
// encoder's reconstruction path operation for operation — prediction from
// the decoded frame, dequantisation, inverse transform, in-loop
// deblocking — so a decoded frame is bit-exact against the encoder's own
// reconstruction. The round trip is the strongest integration test of the
// codec substrate and keeps the stream format honest: everything the
// decoder needs must really be in the bits.
type Decoder struct {
	w, h    int
	ref     *video.Frame // previous decoded frame
	frameNo int
}

// NewDecoder creates a decoder for w x h video (multiples of 16).
func NewDecoder(w, h int) (*Decoder, error) {
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		return nil, fmt.Errorf("h264: frame size %dx%d is not a multiple of 16", w, h)
	}
	return &Decoder{w: w, h: h}, nil
}

// DecodeFrame reconstructs one frame from its bitstream.
func (d *Decoder) DecodeFrame(stream []byte) (*video.Frame, error) {
	r := NewBitReader(stream)
	frame, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	qpU, err := r.ReadUE()
	if err != nil {
		return nil, err
	}
	qp := int(qpU)
	if _, err := r.ReadBit(); err != nil { // intra-frame flag (informative)
		return nil, err
	}
	if int(frame) != d.frameNo {
		return nil, fmt.Errorf("h264: stream is frame %d, decoder expects %d", frame, d.frameNo)
	}

	rec := video.NewFrame(d.w, d.h)
	info := make([]BlockInfo, (d.w/4)*(d.h/4))
	infoAt := func(bx, by int) *BlockInfo { return &info[(by/4)*(d.w/4)+(bx/4)] }

	for my := 0; my < d.h/16; my++ {
		for mx := 0; mx < d.w/16; mx++ {
			if err := d.decodeMB(r, rec, mx*16, my*16, qp, infoAt); err != nil {
				return nil, fmt.Errorf("h264: macroblock (%d,%d): %w", mx, my, err)
			}
		}
	}
	runDeblock(rec, info, d.w, d.h, qp, nil)

	d.ref = rec
	d.frameNo++
	return rec, nil
}

func (d *Decoder) decodeMB(r *BitReader, rec *video.Frame, mbx, mby, qp int, infoAt func(int, int) *BlockInfo) error {
	mbType, err := r.ReadUE()
	if err != nil {
		return err
	}
	switch mbType {
	case mbTypeSkip:
		if d.ref == nil {
			return fmt.Errorf("skip macroblock in the first frame")
		}
		var buf [64]uint8
		for q := 0; q < 4; q++ {
			MotionCompensate(d.ref, mbx, mby, q, MV{}, buf[:])
			writeQuadrant(rec, mbx, mby, q, buf[:])
		}
		d.copyChromaSkip(rec, mbx, mby)
		for by := mby; by < mby+16; by += 4 {
			for bx := mbx; bx < mbx+16; bx += 4 {
				*infoAt(bx, by) = BlockInfo{}
			}
		}
		return nil

	case mbTypeInter:
		if d.ref == nil {
			return fmt.Errorf("inter macroblock in the first frame")
		}
		mvx, err := r.ReadSE()
		if err != nil {
			return err
		}
		mvy, err := r.ReadSE()
		if err != nil {
			return err
		}
		mv := MV{int(mvx), int(mvy)}
		if err := d.decodeInterLuma(r, rec, mbx, mby, mv, qp, infoAt); err != nil {
			return err
		}
		return d.decodeChroma(r, rec, mbx, mby, false, mv, qp)

	case mbTypeIntra:
		if err := d.decodeIntraLuma(r, rec, mbx, mby, qp, infoAt); err != nil {
			return err
		}
		return d.decodeChroma(r, rec, mbx, mby, true, MV{}, qp)

	default:
		return fmt.Errorf("unknown macroblock type %d", mbType)
	}
}

func (d *Decoder) decodeIntraLuma(r *BitReader, rec *video.Frame, mbx, mby, qp int, infoAt func(int, int) *BlockInfo) error {
	for by := mby; by < mby+16; by += 4 {
		for bx := mbx; bx < mbx+16; bx += 4 {
			modeU, err := r.ReadUE()
			if err != nil {
				return err
			}
			if modeU >= uint32(numIntraModes) {
				return fmt.Errorf("intra mode %d out of range", modeU)
			}
			var levels Block4
			if err := readBlock(r, &levels); err != nil {
				return err
			}
			var pred Block4
			PredictIntra4(rec, bx, by, IntraMode(modeU), &pred)
			coded := reconstructBlock(&levels, qp)
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					rec.Set(bx+x, by+y, clipPixel(pred[y*4+x]+levels[y*4+x]))
				}
			}
			*infoAt(bx, by) = BlockInfo{Intra: true, Coded: coded}
		}
	}
	// Luma DC block (rate-estimation path): consume, not reconstructed.
	var dc Block4
	return readBlock(r, &dc)
}

func (d *Decoder) decodeInterLuma(r *BitReader, rec *video.Frame, mbx, mby int, mv MV, qp int, infoAt func(int, int) *BlockInfo) error {
	var pred [256]int32
	var buf [64]uint8
	for q := 0; q < 4; q++ {
		MotionCompensate(d.ref, mbx, mby, q, mv, buf[:])
		ox, oy := (q&1)*8, (q>>1)*8
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				pred[(oy+y)*16+ox+x] = int32(buf[y*8+x])
			}
		}
	}
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			var levels Block4
			if err := readBlock(r, &levels); err != nil {
				return err
			}
			coded := reconstructBlock(&levels, qp)
			for y := 0; y < 4; y++ {
				for x := 0; x < 4; x++ {
					rec.Set(mbx+bx+x, mby+by+y, clipPixel(pred[(by+y)*16+bx+x]+levels[y*4+x]))
				}
			}
			*infoAt(mbx+bx, mby+by) = BlockInfo{Coded: coded, MV: mv}
		}
	}
	return nil
}

// decodeChroma mirrors encodeChromaMB's reconstruction path.
func (d *Decoder) decodeChroma(r *BitReader, rec *video.Frame, mbx, mby int, intra bool, mv MV, qp int) error {
	recP := planesOf(rec)
	var refP [2]chromaPlane
	if d.ref != nil {
		refP = planesOf(d.ref)
	}
	cx, cy := mbx/2, mby/2

	for p := 0; p < 2; p++ {
		var pred [64]int32
		if intra {
			dc := recP[p].predictDC(cx, cy)
			for i := range pred {
				pred[i] = dc
			}
		} else {
			var buf [64]uint8
			refP[p].compensate(mbx, mby, mv, buf[:])
			for i, v := range buf {
				pred[i] = int32(v)
			}
		}
		for q := 0; q < 4; q++ {
			var levels Block4
			if err := readBlock(r, &levels); err != nil {
				return err
			}
			coded := reconstructBlockMode(&levels, qp)
			ox, oy := (q&1)*4, (q>>1)*4
			for y := 0; y < 4; y++ {
				row := recP[p].row(cx+ox, cy+oy+y, 4)
				for x := range row {
					v := pred[(oy+y)*8+ox+x]
					if coded {
						v += levels[y*4+x]
					}
					row[x] = clipPixel(v)
				}
			}
		}
		// Chroma DC path: consume the four signed values.
		for i := 0; i < 4; i++ {
			if _, err := r.ReadSE(); err != nil {
				return err
			}
		}
	}
	return nil
}

// reconstructBlock turns quantised levels into a spatial residual in place
// (dequantisation + inverse transform); it reports whether the block was
// coded. Uncoded blocks become zero, mirroring the encoder.
func reconstructBlock(levels *Block4, qp int) bool {
	coded := false
	for _, v := range levels {
		if v != 0 {
			coded = true
			break
		}
	}
	if !coded {
		*levels = Block4{}
		return false
	}
	Dequant(levels, qp)
	IDCT4(levels)
	return true
}

// reconstructBlockMode matches the chroma path, where the encoder adds the
// residual only for coded blocks (identical arithmetic, kept separate for
// symmetry with encodeChromaMB).
func reconstructBlockMode(levels *Block4, qp int) bool {
	return reconstructBlock(levels, qp)
}

// copyChromaSkip copies the chroma planes of a skipped macroblock from the
// reference (zero motion).
func (d *Decoder) copyChromaSkip(rec *video.Frame, mbx, mby int) {
	refP := planesOf(d.ref)
	recP := planesOf(rec)
	var buf [64]uint8
	for p := 0; p < 2; p++ {
		refP[p].compensate(mbx, mby, MV{}, buf[:])
		recP[p].put8(mbx/2, mby/2, buf[:])
	}
}
