package h264

import (
	"fmt"
	"math"
	"testing"

	"mrts/internal/video"
)

// The encoder's host kernels — the filtered half-pel planes, the SWAR row
// SAD and the Exp-Golomb writer — are exact rewrites of simpler code that
// these tests keep as oracles.

// scalarRowSAD is the per-sample row SAD rowSAD replaces.
func scalarRowSAD(a, b []uint8) int32 {
	var s int32
	for i := range a[:16] {
		d := int32(a[i]) - int32(b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// TestRowSADMatchesScalar checks the SWAR row SAD against the scalar loop:
// exhaustively over every 0/255 combination of the two rows' samples in
// each 8-sample word (the largest lane differences of both signs), then
// on seeded random rows.
func TestRowSADMatchesScalar(t *testing.T) {
	var a, b [16]uint8
	check := func() {
		t.Helper()
		if got, want := rowSAD(a[:], b[:]), scalarRowSAD(a[:], b[:]); got != want {
			t.Fatalf("rowSAD(%v, %v) = %d, scalar %d", a, b, got, want)
		}
	}
	for word := 0; word < 2; word++ {
		for pat := 0; pat < 1<<16; pat++ {
			a, b = [16]uint8{}, [16]uint8{}
			for i := 0; i < 8; i++ {
				a[word*8+i] = uint8(pat>>i&1) * 255
				b[word*8+i] = uint8(pat>>(8+i)&1) * 255
			}
			check()
		}
	}
	for i := range a {
		a[i], b[i] = 255, 0
	}
	check()
	const seed = 20261019
	t.Logf("random rows from seed %d", seed)
	rng := video.NewRNG(seed)
	for n := 0; n < 100000; n++ {
		for i := range a {
			a[i], b[i] = uint8(rng.Uint64()), uint8(rng.Uint64())
		}
		check()
	}
}

// TestHalfPelPlanesMatchLumaHalfPel checks every sample of the four planes
// fill builds against the clamped per-sample oracles on the unextended
// frame: the integer plane over the whole margin, the three half-pel
// planes over the window their taps reach, which is the reach of a motion
// search of range r. The frames are random pairs, whose white-noise
// content drives the 6-tap filter into both clips.
func TestHalfPelPlanesMatchLumaHalfPel(t *testing.T) {
	var seed uint64 = 100
	for _, sz := range [][2]int{{16, 16}, {48, 32}, {176, 144}} {
		for _, r := range []int{0, 1, 3, 8} {
			seed++
			w, h, r, seed := sz[0], sz[1], r, seed
			t.Run(fmt.Sprintf("%dx%d/r%d/seed%d", w, h, r, seed), func(t *testing.T) {
				_, ref := randomPair(w, h, seed)
				var p refPlane
				m := searchMargin(r)
				p.fill(ref, m)
				for y := -m; y < h+m; y++ {
					for x := -m; x < w+m; x++ {
						if got, want := p.pix[0][p.off(x, y)], ref.At(x, y); got != want {
							t.Fatalf("integer (%d,%d) = %d, At %d", x, y, got, want)
						}
					}
				}
				for f := 1; f < 4; f++ {
					for y := 2 - m; y < h+m-3; y++ {
						for x := 2 - m; x < w+m-3; x++ {
							if got, want := p.pix[f][p.off(x, y)], LumaHalfPel(ref, 2*x+f&1, 2*y+f>>1); got != want {
								t.Fatalf("phase %d (%d,%d) = %d, LumaHalfPel %d", f, x, y, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// bitLoopWriter is the bit-at-a-time Exp-Golomb writer BitWriter
// replaces, kept as its oracle.
type bitLoopWriter struct {
	buf  []byte
	bits int
}

func (w *bitLoopWriter) WriteBit(b int) {
	byteIdx := w.bits >> 3
	if byteIdx == len(w.buf) {
		w.buf = append(w.buf, 0)
	}
	if b != 0 {
		w.buf[byteIdx] |= 1 << (7 - uint(w.bits&7))
	}
	w.bits++
}

func (w *bitLoopWriter) WriteBits(v uint32, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(int(v >> uint(i) & 1))
	}
}

func (w *bitLoopWriter) WriteUE(v uint32) {
	code := v + 1
	n := 0
	for t := code; t > 1; t >>= 1 {
		n++
	}
	for i := 0; i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteBits(code, n+1)
}

func (w *bitLoopWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.WriteUE(u)
}

// writerPair drives a BitWriter and its bit-loop oracle in step.
type writerPair struct {
	got  BitWriter
	want bitLoopWriter
}

func (p *writerPair) check(t *testing.T, what string) {
	t.Helper()
	if p.got.Bits() != p.want.bits || string(p.got.Bytes()) != string(p.want.buf) {
		t.Fatalf("after %s: %d bits %x, bit loop %d bits %x", what, p.got.Bits(), p.got.Bytes(), p.want.bits, p.want.buf)
	}
}

// TestBitWriterMatchesBitLoop checks the byte-at-a-time writer against the
// bit loop at every alignment: codes at 0, 2^k-2, 2^k-1 for every k and
// MaxUint32 (where v+1 wraps to 0 and the code is one 0 bit), signed
// codes up to ±2^30 and the int32 extremes, and raw fields of every width.
func TestBitWriterMatchesBitLoop(t *testing.T) {
	ue := []uint32{0, math.MaxUint32}
	for k := 1; k <= 32; k++ {
		ue = append(ue, uint32(1<<k-2), uint32(1<<k-1))
	}
	se := []int32{0, 1, -1, 1 << 30, -(1 << 30), 1<<30 - 1, -(1<<30 - 1), math.MaxInt32, math.MinInt32}
	for align := 0; align < 8; align++ {
		var p writerPair
		p.got.WriteBits(0x5a, align)
		p.want.WriteBits(0x5a, align)
		p.check(t, fmt.Sprintf("%d alignment bits", align))
		for _, v := range ue {
			p.got.WriteUE(v)
			p.want.WriteUE(v)
			p.check(t, fmt.Sprintf("ue(%d) at alignment %d", v, align))
		}
		for _, v := range se {
			p.got.WriteSE(v)
			p.want.WriteSE(v)
			p.check(t, fmt.Sprintf("se(%d) at alignment %d", v, align))
		}
		for n := 0; n <= 32; n++ {
			p.got.WriteBits(0xdeadbeef, n)
			p.want.WriteBits(0xdeadbeef, n)
			p.got.WriteBit(n & 1)
			p.want.WriteBit(n & 1)
			p.check(t, fmt.Sprintf("%d raw bits at alignment %d", n, align))
		}
	}
}
