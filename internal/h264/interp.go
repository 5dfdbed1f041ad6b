package h264

import "mrts/internal/video"

// Half-pel luma interpolation with the H.264 6-tap filter
// (1, -5, 20, 20, -5, 1)/32. Motion vectors throughout the encoder are in
// half-pel units: even components address integer sample positions, odd
// components the interpolated half positions.

// sixTap applies the 6-tap filter to six neighbouring samples and returns
// the rounded, clipped result.
func sixTap(a, b, c, d, e, f int32) int32 {
	v := (a - 5*b + 20*c + 20*d - 5*e + f + 16) >> 5
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return v
}

// LumaHalfPel returns the luma sample of ref at the half-pel coordinate
// (hx, hy) (half-pel units: integer positions are even values).
func LumaHalfPel(ref *video.Frame, hx, hy int) uint8 {
	ix, iy := hx>>1, hy>>1
	fracX, fracY := hx&1, hy&1
	switch {
	case fracX == 0 && fracY == 0:
		return ref.At(ix, iy)
	case fracX == 1 && fracY == 0:
		// Horizontal half position between (ix, iy) and (ix+1, iy).
		return uint8(sixTap(
			int32(ref.At(ix-2, iy)), int32(ref.At(ix-1, iy)), int32(ref.At(ix, iy)),
			int32(ref.At(ix+1, iy)), int32(ref.At(ix+2, iy)), int32(ref.At(ix+3, iy))))
	case fracX == 0 && fracY == 1:
		// Vertical half position.
		return uint8(sixTap(
			int32(ref.At(ix, iy-2)), int32(ref.At(ix, iy-1)), int32(ref.At(ix, iy)),
			int32(ref.At(ix, iy+1)), int32(ref.At(ix, iy+2)), int32(ref.At(ix, iy+3))))
	default:
		// Centre position: 6-tap vertically over horizontally
		// interpolated half-row values (two-stage, as in the standard).
		h := func(y int) int32 {
			return sixTap(
				int32(ref.At(ix-2, y)), int32(ref.At(ix-1, y)), int32(ref.At(ix, y)),
				int32(ref.At(ix+1, y)), int32(ref.At(ix+2, y)), int32(ref.At(ix+3, y)))
		}
		return uint8(sixTap(h(iy-2), h(iy-1), h(iy), h(iy+1), h(iy+2), h(iy+3)))
	}
}
