package h264

import (
	"fmt"
	"math/bits"
)

// Bitstream serialisation. The encoder emits an actual bit-exact stream —
// macroblock headers, motion vectors and quantised coefficients — through
// a BitWriter with the Exp-Golomb codes H.264 uses for its syntax
// elements. The format is this encoder's own (not a decodable H.264
// elementary stream), but every bit the rate statistics report is really
// written, and BitReader decodes the stream back for verification.

// BitWriter accumulates bits MSB-first into a byte buffer.
type BitWriter struct {
	buf  []byte
	bits int // total bits written
}

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b int) {
	var v uint32
	if b != 0 {
		v = 1
	}
	w.WriteBits(v, 1)
}

// WriteBits appends the low n bits of v, most significant first (n <= 32),
// ORing them into the buffer up to a byte at a time.
func (w *BitWriter) WriteBits(v uint32, n int) {
	if n <= 0 {
		return
	}
	for end := (w.bits + n + 7) >> 3; len(w.buf) < end; {
		w.buf = append(w.buf, 0)
	}
	x := uint64(v) & (1<<uint(n) - 1)
	for n > 0 {
		free := 8 - w.bits&7 // bits left in the current byte
		i := w.bits >> 3
		if n < free {
			w.buf[i] |= byte(x << uint(free-n))
			w.bits += n
			return
		}
		n -= free
		w.buf[i] |= byte(x >> uint(n))
		x &= 1<<uint(n) - 1
		w.bits += free
	}
}

// WriteUE appends v with the unsigned Exp-Golomb code: (leading zeros for
// the bit length of v+1) followed by v+1. At v = MaxUint32, v+1 wraps to 0
// and the code is a single 0 bit.
func (w *BitWriter) WriteUE(v uint32) {
	code := v + 1
	n := max(bits.Len32(code)-1, 0)
	if n < 16 {
		w.WriteBits(code, 2*n+1)
		return
	}
	w.WriteBits(0, n)
	w.WriteBits(code, n+1)
}

// WriteSE appends v with the signed Exp-Golomb mapping
// (0, 1, -1, 2, -2, ...).
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(2*v - 1)
	} else {
		u = uint32(-2 * v)
	}
	w.WriteUE(u)
}

// Bits returns the number of bits written so far.
func (w *BitWriter) Bits() int { return w.bits }

// Bytes returns the stream, zero-padded to a byte boundary.
func (w *BitWriter) Bytes() []byte { return w.buf }

// Reset clears the writer for reuse.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.bits = 0
}

// BitReader consumes a stream produced by BitWriter.
type BitReader struct {
	buf []byte
	pos int // bit position
}

// NewBitReader wraps a byte buffer.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (int, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, fmt.Errorf("h264: bitstream exhausted at bit %d", r.pos)
	}
	b := int(r.buf[byteIdx] >> (7 - uint(r.pos&7)) & 1)
	r.pos++
	return b, nil
}

// ReadBits consumes n bits, MSB first.
func (r *BitReader) ReadBits(n int) (uint32, error) {
	var v uint32
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint32(b)
	}
	return v, nil
}

// ReadUE decodes an unsigned Exp-Golomb code.
func (r *BitReader) ReadUE() (uint32, error) {
	zeros := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, fmt.Errorf("h264: malformed Exp-Golomb code")
		}
	}
	rest, err := r.ReadBits(zeros)
	if err != nil {
		return 0, err
	}
	return 1<<uint(zeros) | rest - 1, nil
}

// ReadSE decodes a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u&1 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// Pos returns the current bit position.
func (r *BitReader) Pos() int { return r.pos }

// writeBlock serialises a quantised 4x4 block in zig-zag order:
// significance run-length plus signed levels, trailing zeros elided.
func writeBlock(w *BitWriter, b *Block4) {
	lastNZ := -1
	for i := 15; i >= 0; i-- {
		if b[zigzag4[i]] != 0 {
			lastNZ = i
			break
		}
	}
	w.WriteUE(uint32(lastNZ + 1)) // number of scan positions that follow
	for i := 0; i <= lastNZ; i++ {
		w.WriteSE(b[zigzag4[i]])
	}
}

// readBlock decodes a block written by writeBlock.
func readBlock(r *BitReader, b *Block4) error {
	*b = Block4{}
	n, err := r.ReadUE()
	if err != nil {
		return err
	}
	if n > 16 {
		return fmt.Errorf("h264: block scan length %d out of range", n)
	}
	for i := 0; i < int(n); i++ {
		v, err := r.ReadSE()
		if err != nil {
			return err
		}
		b[zigzag4[i]] = v
	}
	return nil
}
