package h264

import (
	"fmt"
	"math"
	"testing"

	"mrts/internal/video"
)

// FuzzParseStream feeds arbitrary bytes to the frame parser: it must
// return an error or statistics, never panic or loop.
func FuzzParseStream(f *testing.F) {
	// Seed with a real frame and a few degenerate inputs.
	g, err := video.NewGenerator(32, 32, 5, video.Options{})
	if err != nil {
		f.Fatal(err)
	}
	enc, err := NewEncoder(32, 32, Config{})
	if err != nil {
		f.Fatal(err)
	}
	st, err := enc.EncodeFrame(g.Next())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(st.Stream)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0xAA})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ParseStream(data, 32, 32)
	})
}

// FuzzBitReaderExpGolomb checks the Exp-Golomb decoder never panics and,
// when it succeeds, re-encoding fits within the consumed bits.
func FuzzBitReaderExpGolomb(f *testing.F) {
	f.Add([]byte{0b10000000})
	f.Add([]byte{0b00100110, 0xF0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewBitReader(data)
		v, err := r.ReadUE()
		if err != nil {
			return
		}
		var w BitWriter
		w.WriteUE(v)
		if w.Bits() > r.Pos() {
			t.Fatalf("re-encoding ue(%d) uses %d bits, reader consumed %d", v, w.Bits(), r.Pos())
		}
	})
}

// FuzzRowSAD checks the SWAR row SAD against the scalar loop on two
// arbitrary 16-sample rows.
func FuzzRowSAD(f *testing.F) {
	f.Add(make([]byte, 32))
	f.Add([]byte("\x00\xff\x00\xff\x00\xff\x00\xff\xff\x00\xff\x00\xff\x00\xff\x00" +
		"\xff\x00\xff\x00\xff\x00\xff\x00\x00\xff\x00\xff\x00\xff\x00\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 {
			return
		}
		a, b := data[:16], data[16:32]
		if got, want := rowSAD(a, b), scalarRowSAD(a, b); got != want {
			t.Fatalf("rowSAD(%v, %v) = %d, scalar %d", a, b, got, want)
		}
	})
}

// FuzzWriteUE checks the Exp-Golomb writer against the bit-loop writer it
// replaces: an unsigned and a signed code after align raw bits.
func FuzzWriteUE(f *testing.F) {
	f.Add(uint32(0), int32(0), uint8(0))
	f.Add(uint32(math.MaxUint32), int32(1<<30), uint8(3))
	f.Add(uint32(1<<16-1), int32(-(1 << 30)), uint8(7))
	f.Fuzz(func(t *testing.T, v uint32, s int32, align uint8) {
		var p writerPair
		p.got.WriteBits(uint32(align), int(align%8))
		p.want.WriteBits(uint32(align), int(align%8))
		p.got.WriteUE(v)
		p.want.WriteUE(v)
		p.check(t, fmt.Sprintf("ue(%d) after %d bits", v, align%8))
		p.got.WriteSE(s)
		p.want.WriteSE(s)
		p.check(t, fmt.Sprintf("se(%d)", s))
	})
}
