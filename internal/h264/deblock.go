package h264

import "mrts/internal/video"

// In-loop deblocking filter (simplified H.264): per 4-pixel edge segment a
// boundary strength is computed from the coding decisions of the adjacent
// blocks (the control-dominant, bit-level "bs" kernel of the paper's
// motivational case study), and where the strength and the sample gradients
// demand it, a short low-pass filter modifies the edge samples (the
// data-dominant "filt" kernel).

// BS levels.
const (
	BSNone  = 0
	BSCoded = 1
	BSMV    = 2
	BSIntra = 3
)

// alphaTable / betaTable follow the closed forms underlying the H.264
// threshold tables: alpha grows exponentially with the index, beta
// linearly; both are zero below index 16 (filtering disabled).
func alphaOf(idx int) int32 {
	if idx < 16 {
		return 0
	}
	if idx > 51 {
		idx = 51
	}
	// 0.8 * (2^(idx/6) - 1), in integer arithmetic.
	p := int32(1) << uint(idx/6)
	frac := []int32{0, 1, 2, 3, 4, 5}[idx%6]
	v := p + p*frac/6 - 1
	return v * 4 / 5
}

func betaOf(idx int) int32 {
	if idx < 16 {
		return 0
	}
	if idx > 51 {
		idx = 51
	}
	return int32(idx/2 - 7)
}

// BlockInfo carries the per-4x4-block coding decisions the boundary
// strength depends on.
type BlockInfo struct {
	Intra bool
	Coded bool
	MV    MV
}

// BoundaryStrength computes the filter strength across the edge between
// blocks p and q (bit/byte-level decision logic).
func BoundaryStrength(p, q BlockInfo) int {
	switch {
	case p.Intra || q.Intra:
		return BSIntra
	case p.Coded || q.Coded:
		return BSCoded
	default:
		dx := p.MV.X - q.MV.X
		dy := p.MV.Y - q.MV.Y
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx >= 2 || dy >= 2 { // >= 1 pel in half-pel units
			return BSMV
		}
		return BSNone
	}
}

// FilterEdge applies the deblocking filter to one 4-sample edge segment.
// vertical selects a vertical edge (samples left/right) versus horizontal
// (samples above/below). (x, y) is the first sample of the segment on the
// q side. It returns whether any sample was modified. A segment whose taps
// would leave the frame (an edge on the frame's border) is not filtered.
func FilterEdge(rec *video.Frame, x, y int, vertical bool, bs int, qp int) bool {
	if bs == BSNone || !edgeInside(x, y, 4, vertical, rec.W, rec.H) {
		return false
	}
	across, along := edgeSteps(vertical, rec.W)
	return filterSegment(rec.Y, y*rec.W+x, across, along, 4, alphaOf(qp), betaOf(qp), int32(bs))
}

// edgeInside reports whether an n-sample edge segment whose first q-side
// sample is (x, y) has all its taps (p1, p0, q0, q1) inside a w×h plane.
func edgeInside(x, y, n int, vertical bool, w, h int) bool {
	if vertical {
		return x >= 2 && x+1 < w && y >= 0 && y+n <= h
	}
	return y >= 2 && y+1 < h && x >= 0 && x+n <= w
}

// edgeSteps returns the index steps across and along an edge in a plane
// of stride s.
func edgeSteps(vertical bool, s int) (across, along int) {
	if vertical {
		return 1, s
	}
	return s, 1
}

// filterSegment runs the edge filter over n samples of pix: the q0 sample
// of the first is pix[j], the p side lies at j-across, j-2*across and the
// segment runs along. tc0 is the clipping bound; alpha and beta are the
// gradient thresholds (alpha 0 filters nothing). It reports whether any
// sample changed.
func filterSegment(pix []uint8, j, across, along, n int, alpha, beta, tc0 int32) bool {
	changed := false
	for i := 0; i < n; i, j = i+1, j+along {
		p1, p0 := int32(pix[j-2*across]), int32(pix[j-across])
		q0, q1 := int32(pix[j]), int32(pix[j+across])
		if abs32(q0-p0) >= alpha || abs32(p1-p0) >= beta || abs32(q1-q0) >= beta {
			continue
		}
		delta := clip3(((q0-p0)<<2+(p1-q1)+4)>>3, -tc0, tc0)
		if delta == 0 {
			continue
		}
		pix[j-across] = clipPixel(p0 + delta)
		pix[j] = clipPixel(q0 - delta)
		changed = true
	}
	return changed
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func clip3(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clipPixel(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}
