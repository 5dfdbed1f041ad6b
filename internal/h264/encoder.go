package h264

import (
	"fmt"
	"math"

	"mrts/internal/video"
)

// Kernel names of the encoder's compute-intensive loops, grouped by the
// functional block they belong to. The ISE library (internal/iselib) maps
// them to kernels of the multi-grained processor.
const (
	// Motion-estimation / mode-decision functional block.
	KernelSAD   = "sad"
	KernelSATD  = "satd"
	KernelIPred = "ipred"
	// Encoding-engine functional block.
	KernelDCT      = "dct"
	KernelQuant    = "quant"
	KernelIQuant   = "iquant"
	KernelIDCT     = "idct"
	KernelHadamard = "hadamard"
	KernelMC       = "mc"
	KernelCAVLC    = "cavlc"
	// In-loop deblocking-filter functional block.
	KernelBS   = "bs"
	KernelFilt = "filt"
)

// kernel indexes the per-frame invocation counters the encoder keeps in a
// fixed array; kernelNames maps each index back to its kernel name.
type kernel int

const (
	kSAD kernel = iota
	kSATD
	kIPred
	kDCT
	kQuant
	kIQuant
	kIDCT
	kHadamard
	kMC
	kCAVLC
	kBS
	kFilt
	numKernels
)

var kernelNames = [numKernels]string{
	kSAD: KernelSAD, kSATD: KernelSATD, kIPred: KernelIPred,
	kDCT: KernelDCT, kQuant: KernelQuant, kIQuant: KernelIQuant, kIDCT: KernelIDCT,
	kHadamard: KernelHadamard, kMC: KernelMC, kCAVLC: KernelCAVLC,
	kBS: KernelBS, kFilt: KernelFilt,
}

// kernelCounts accumulates one frame's kernel invocations.
type kernelCounts [numKernels]int64

// toMap returns the counts keyed by kernel name, holding only kernels
// invoked at least once.
func (c *kernelCounts) toMap() map[string]int64 {
	m := make(map[string]int64, numKernels)
	for k, n := range c {
		if n > 0 {
			m[kernelNames[k]] = n
		}
	}
	return m
}

// FunctionalBlocks maps each functional block of the encoder to its
// kernels, in pipeline order.
var FunctionalBlocks = []struct {
	ID      string
	Name    string
	Kernels []string
}{
	{ID: "me", Name: "Motion Estimation & Mode Decision", Kernels: []string{KernelSAD, KernelSATD, KernelIPred}},
	{ID: "enc", Name: "Encoding Engine", Kernels: []string{KernelMC, KernelDCT, KernelQuant, KernelCAVLC, KernelIQuant, KernelIDCT, KernelHadamard}},
	{ID: "dbf", Name: "In-Loop Deblocking Filter", Kernels: []string{KernelBS, KernelFilt}},
}

// FrameStats records what encoding one frame cost.
type FrameStats struct {
	Frame  int
	Counts map[string]int64
	Intra  int // intra-coded macroblocks
	Inter  int // inter-coded macroblocks
	Skip   int // skipped macroblocks
	// Bits is the exact size of the frame's serialised stream.
	Bits int64
	// Stream is the frame's serialised bitstream (the encoder's own
	// format; see ParseStream).
	Stream []byte
	PSNR   float64
}

// Config tunes the encoder.
//
// For the three tunables below a real zero is meaningful (QP 0 is the
// finest quantiser, SearchRange 0 is zero-MV-only motion search,
// SkipThreshold 0 disables skipping), but the zero value selects the
// documented default. Pass any negative value to request an explicit
// zero; Canonical folds every negative spelling to -1 so all of them
// hash to the same cache key.
type Config struct {
	// QP is the quantisation parameter (default 28; negative = QP 0).
	QP int
	// SearchRange is the motion-search range in pels (default 8;
	// negative = 0, zero-MV only).
	SearchRange int
	// SkipThreshold is the zero-MV SAD below which a macroblock is
	// skipped (default 600; negative = 0, never skip).
	SkipThreshold int32
	// ForceIntraEvery inserts periodic intra frames (0 = only frame 0).
	ForceIntraEvery int
}

// Canonical returns the configuration with every default applied, for
// content-addressed cache keys. Explicit-zero sentinels normalise to -1.
func (c Config) Canonical() Config {
	c.defaults()
	if c.QP < 0 {
		c.QP = -1
	}
	if c.SearchRange < 0 {
		c.SearchRange = -1
	}
	if c.SkipThreshold < 0 {
		c.SkipThreshold = -1
	}
	return c
}

func (c *Config) defaults() {
	if c.QP == 0 {
		c.QP = 28
	}
	if c.SearchRange == 0 {
		c.SearchRange = 8
	}
	if c.SkipThreshold == 0 {
		c.SkipThreshold = 600
	}
}

// effective resolves the explicit-zero sentinels to the values the
// encoding loops use.
func (c *Config) effective() {
	c.defaults()
	if c.QP < 0 {
		c.QP = 0
	}
	if c.SearchRange < 0 {
		c.SearchRange = 0
	}
	if c.SkipThreshold < 0 {
		c.SkipThreshold = 0
	}
}

// Encoder encodes a frame sequence and counts kernel invocations.
type Encoder struct {
	cfg     Config
	w, h    int
	mbW     int
	mbH     int
	ref     *video.Frame // previous reconstructed frame
	plane   refPlane     // ref, edge-extended and half-pel filtered, once planeOK
	planeOK bool         // plane holds ref; refilled only by a frame that searches
	frameNo int
	bw      BitWriter    // per-frame bitstream
	counts  kernelCounts // per-frame kernel invocations
	info    []BlockInfo  // per-4x4-block coding decisions for the deblocking filter
}

// NewEncoder creates an encoder for w x h video. Dimensions must be
// multiples of 16 (macroblock size).
func NewEncoder(w, h int, cfg Config) (*Encoder, error) {
	if w <= 0 || h <= 0 || w%16 != 0 || h%16 != 0 {
		return nil, fmt.Errorf("h264: frame size %dx%d is not a multiple of 16", w, h)
	}
	cfg.effective()
	return &Encoder{cfg: cfg, w: w, h: h, mbW: w / 16, mbH: h / 16, info: make([]BlockInfo, (w/4)*(h/4))}, nil
}

// FrameNo returns the index the next EncodeFrame call will encode.
func (e *Encoder) FrameNo() int { return e.frameNo }

// Reconstructed returns the most recent reconstructed frame (the decoder
// reference), or nil before the first EncodeFrame.
func (e *Encoder) Reconstructed() *video.Frame { return e.ref }

// EncodeFrame encodes one frame against the previous reconstructed frame
// and returns the per-kernel invocation counts.
func (e *Encoder) EncodeFrame(cur *video.Frame) (*FrameStats, error) {
	if cur.W != e.w || cur.H != e.h {
		return nil, fmt.Errorf("h264: frame size %dx%d does not match encoder %dx%d", cur.W, cur.H, e.w, e.h)
	}
	if !cur.HasChroma() {
		cur = withChroma(cur)
	}
	st := &FrameStats{Frame: e.frameNo}
	e.counts = kernelCounts{}
	rec := video.NewFrame(e.w, e.h)
	forceIntra := e.ref == nil ||
		(e.cfg.ForceIntraEvery > 0 && e.frameNo%e.cfg.ForceIntraEvery == 0)
	if !forceIntra && !e.planeOK {
		e.plane.fill(e.ref, searchMargin(e.cfg.SearchRange))
		e.planeOK = true
	}
	e.bw.Reset()
	e.writeFrameHeader(forceIntra)

	// Per-4x4-block coding info for the deblocking filter; every
	// macroblock path sets all sixteen of its entries.
	info := e.info
	infoAt := func(bx, by int) *BlockInfo { return &info[(by/4)*(e.w/4)+(bx/4)] }

	for my := 0; my < e.mbH; my++ {
		for mx := 0; mx < e.mbW; mx++ {
			mbx, mby := mx*16, my*16
			e.encodeMB(cur, rec, mbx, mby, forceIntra, st, infoAt)
		}
	}

	// In-loop deblocking over the reconstructed frame.
	runDeblock(rec, info, e.w, e.h, e.cfg.QP, &e.counts)

	st.Counts = e.counts.toMap()
	st.PSNR = psnr(cur, rec)
	st.Bits = int64(e.bw.Bits())
	st.Stream = append([]byte(nil), e.bw.Bytes()...)
	e.ref = rec
	e.planeOK = false // filled when the next frame searches it
	e.frameNo++
	return st, nil
}

func (e *Encoder) encodeMB(cur, rec *video.Frame, mbx, mby int, forceIntra bool, st *FrameStats, infoAt func(int, int) *BlockInfo) {
	intra := forceIntra
	var motion MotionResult
	if !forceIntra {
		// --- Motion estimation & mode decision functional block ---
		motion = e.plane.search(cur, mbx, mby, e.cfg.SearchRange, e.cfg.SkipThreshold)
		e.counts[kSAD] += motion.Candidates
		if motion.Skip {
			// Skip macroblock: motion-compensated copy, no coding.
			e.bw.WriteUE(mbTypeSkip)
			var buf [64]uint8
			for q := 0; q < 4; q++ {
				e.plane.compensate(mbx, mby, q, motion.MV, buf[:])
				e.counts[kMC]++
				writeQuadrant(rec, mbx, mby, q, buf[:])
			}
			e.copyChromaMB(rec, mbx, mby, motion.MV)
			for by := mby; by < mby+16; by += 4 {
				for bx := mbx; bx < mbx+16; bx += 4 {
					*infoAt(bx, by) = BlockInfo{MV: motion.MV}
				}
			}
			st.Skip++
			return
		}
		// Intra estimate on the four corner 4x4 blocks (sub-sampled
		// mode decision, as fast encoders do).
		var intraEst int32
		for _, off := range [4][2]int{{0, 0}, {12, 0}, {0, 12}, {12, 12}} {
			_, cost, modes := BestIntraMode(cur, rec, mbx+off[0], mby+off[1])
			e.counts[kIPred] += int64(modes)
			e.counts[kSATD] += int64(modes)
			intraEst += cost
		}
		intraEst *= 4 // scale the 4 sampled blocks to all 16
		intra = intraEst < motion.SAD
	}

	if intra {
		e.bw.WriteUE(mbTypeIntra)
		e.encodeIntraMB(cur, rec, mbx, mby, infoAt)
		e.encodeChromaMB(cur, rec, mbx, mby, true, MV{})
		st.Intra++
		return
	}
	e.bw.WriteUE(mbTypeInter)
	e.bw.WriteSE(int32(motion.MV.X))
	e.bw.WriteSE(int32(motion.MV.Y))
	e.encodeInterMB(cur, rec, mbx, mby, motion.MV, infoAt)
	e.encodeChromaMB(cur, rec, mbx, mby, false, motion.MV)
	st.Inter++
}

func (e *Encoder) encodeIntraMB(cur, rec *video.Frame, mbx, mby int, infoAt func(int, int) *BlockInfo) {
	var dcBlock Block4
	dcIdx := 0
	for by := mby; by < mby+16; by += 4 {
		for bx := mbx; bx < mbx+16; bx += 4 {
			mode, _, modes := BestIntraMode(cur, rec, bx, by)
			e.counts[kIPred] += int64(modes)
			e.counts[kSATD] += int64(modes)
			e.bw.WriteUE(uint32(mode))

			var pred Block4
			PredictIntra4(rec, bx, by, mode, &pred)
			e.counts[kIPred]++

			var resid Block4
			for y := 0; y < 4; y++ {
				for x, v := range row4(cur, bx, by+y) {
					resid[y*4+x] = int32(v) - pred[y*4+x]
				}
			}
			DCT4(&resid)
			e.counts[kDCT]++
			dcBlock[dcIdx] = resid[0]
			dcIdx++
			nz := Quant(&resid, e.cfg.QP, true)
			e.counts[kQuant]++
			writeBlock(&e.bw, &resid)

			coded := nz > 0
			if coded {
				e.counts[kCAVLC]++
				Dequant(&resid, e.cfg.QP)
				e.counts[kIQuant]++
				IDCT4(&resid)
				e.counts[kIDCT]++
			} else {
				resid = Block4{}
			}
			for y := 0; y < 4; y++ {
				row := row4(rec, bx, by+y)
				for x := range row {
					row[x] = clipPixel(pred[y*4+x] + resid[y*4+x])
				}
			}
			*infoAt(bx, by) = BlockInfo{Intra: true, Coded: coded}
		}
	}
	// Luma-DC Hadamard path (the DC coefficients' own transform and
	// entropy coding).
	Hadamard4(&dcBlock)
	e.counts[kHadamard]++
	if nz := QuantDC(&dcBlock, e.cfg.QP); nz > 0 {
		e.counts[kCAVLC]++
	}
	writeBlock(&e.bw, &dcBlock)
}

func (e *Encoder) encodeInterMB(cur, rec *video.Frame, mbx, mby int, mv MV, infoAt func(int, int) *BlockInfo) {
	var pred [256]uint8
	var buf [64]uint8
	for q := 0; q < 4; q++ {
		e.plane.compensate(mbx, mby, q, mv, buf[:])
		e.counts[kMC]++
		ox, oy := (q&1)*8, (q>>1)*8
		for y := 0; y < 8; y++ {
			copy(pred[(oy+y)*16+ox:][:8], buf[y*8:y*8+8])
		}
	}
	for by := 0; by < 16; by += 4 {
		for bx := 0; bx < 16; bx += 4 {
			var resid Block4
			for y := 0; y < 4; y++ {
				for x, v := range row4(cur, mbx+bx, mby+by+y) {
					resid[y*4+x] = int32(v) - int32(pred[(by+y)*16+bx+x])
				}
			}
			DCT4(&resid)
			e.counts[kDCT]++
			nz := Quant(&resid, e.cfg.QP, false)
			e.counts[kQuant]++
			writeBlock(&e.bw, &resid)

			coded := nz > 0
			if coded {
				e.counts[kCAVLC]++
				Dequant(&resid, e.cfg.QP)
				e.counts[kIQuant]++
				IDCT4(&resid)
				e.counts[kIDCT]++
			} else {
				resid = Block4{}
			}
			for y := 0; y < 4; y++ {
				row := row4(rec, mbx+bx, mby+by+y)
				for x := range row {
					row[x] = clipPixel(int32(pred[(by+y)*16+bx+x]) + resid[y*4+x])
				}
			}
			*infoAt(mbx+bx, mby+by) = BlockInfo{Coded: coded, MV: mv}
		}
	}
}

// runDeblock applies the in-loop deblocking filter; it is shared by the
// encoder and the decoder (which passes nil counts) so both sides filter
// identically — a requirement for bit-exact reconstruction. Every luma
// edge is filtered in place; chroma edges sit on every second luma 4x4
// boundary and reuse its boundary strength (no extra bs kernel
// invocations). Luma and chroma touch different planes, so filtering a
// chroma edge together with its luma edge leaves every plane as filtering
// all luma edges first would.
func runDeblock(rec *video.Frame, info []BlockInfo, w, h, qp int, counts *kernelCounts) {
	w4, h4 := w/4, h/4
	var nbs, nfilt int64
	filter := func(p, q BlockInfo, vertical bool, x, y int, chroma bool) {
		bs := BoundaryStrength(p, q)
		nbs++
		if bs == BSNone {
			return
		}
		FilterEdge(rec, x, y, vertical, bs, qp)
		nfilt++
		if chroma {
			FilterChromaEdge(rec, x/2, y/2, vertical, bs, qp)
			nfilt++
		}
	}
	// Vertical edges: the left edge of every 4x4 block except column 0.
	for by := 0; by < h4; by++ {
		for bx := 1; bx < w4; bx++ {
			filter(info[by*w4+bx-1], info[by*w4+bx], true, bx*4, by*4, bx&1 == 0)
		}
	}
	// Horizontal edges: the top edge of every 4x4 block except row 0.
	for by := 1; by < h4; by++ {
		for bx := 0; bx < w4; bx++ {
			filter(info[(by-1)*w4+bx], info[by*w4+bx], false, bx*4, by*4, by&1 == 0)
		}
	}
	if counts != nil {
		counts[kBS] += nbs
		counts[kFilt] += nfilt
	}
}

// withChroma returns f with a neutral (128) plane in place of each
// missing chroma plane, which is how video.Frame's accessors read one.
func withChroma(f *video.Frame) *video.Frame {
	c := video.NewFrame(f.W, f.H)
	c.Y = f.Y
	if len(f.Cb) > 0 {
		c.Cb = f.Cb
	}
	if len(f.Cr) > 0 {
		c.Cr = f.Cr
	}
	return c
}

// row4 returns the 4 luma samples of f from (x, y) on, which must lie
// inside the frame.
func row4(f *video.Frame, x, y int) []uint8 { return f.Y[y*f.W+x:][:4] }

func writeQuadrant(rec *video.Frame, mbx, mby, q int, buf []uint8) {
	o := (mby+(q>>1)*8)*rec.W + mbx + (q&1)*8
	for y := 0; y < 8; y++ {
		copy(rec.Y[o+y*rec.W:][:8], buf[y*8:y*8+8])
	}
}

// psnr sums the squared errors in integers; every partial sum of a frame
// below 2^37 samples is exact in a float64 too, so the result is the one
// a float64 sum gives.
func psnr(a, b *video.Frame) float64 {
	var sse int64
	bY := b.Y[:len(a.Y)]
	for i, v := range a.Y {
		d := int64(v) - int64(bY[i])
		sse += d * d
	}
	if sse == 0 {
		return 99
	}
	mse := float64(sse) / float64(len(a.Y))
	return 10 * math.Log10(255*255/mse)
}
