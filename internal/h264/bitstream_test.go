package h264

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterSingleBits(t *testing.T) {
	var w BitWriter
	for _, b := range []int{1, 0, 1, 1, 0, 0, 0, 1, 1} {
		w.WriteBit(b)
	}
	if w.Bits() != 9 {
		t.Errorf("bits = %d", w.Bits())
	}
	buf := w.Bytes()
	if len(buf) != 2 || buf[0] != 0b10110001 || buf[1] != 0b10000000 {
		t.Errorf("bytes = %08b", buf)
	}
}

func TestBitRoundTripBits(t *testing.T) {
	f := func(v uint32, nRaw uint8) bool {
		n := int(nRaw%32) + 1
		v &= 1<<uint(n) - 1
		var w BitWriter
		w.WriteBits(v, n)
		r := NewBitReader(w.Bytes())
		got, err := r.ReadBits(n)
		return err == nil && got == v
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestExpGolombRoundTripUE(t *testing.T) {
	f := func(v uint32) bool {
		v %= 1 << 24
		var w BitWriter
		w.WriteUE(v)
		r := NewBitReader(w.Bytes())
		got, err := r.ReadUE()
		return err == nil && got == v
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestExpGolombRoundTripSE(t *testing.T) {
	f := func(v int16) bool {
		var w BitWriter
		w.WriteSE(int32(v))
		r := NewBitReader(w.Bytes())
		got, err := r.ReadSE()
		return err == nil && got == int32(v)
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestExpGolombKnownCodes(t *testing.T) {
	// ue(0) = "1", ue(1) = "010", ue(2) = "011", ue(3) = "00100".
	cases := []struct {
		v    uint32
		bits int
	}{{0, 1}, {1, 3}, {2, 3}, {3, 5}, {6, 5}, {7, 7}}
	for _, c := range cases {
		var w BitWriter
		w.WriteUE(c.v)
		if w.Bits() != c.bits {
			t.Errorf("ue(%d) = %d bits, want %d", c.v, w.Bits(), c.bits)
		}
	}
}

func TestBitReaderExhaustion(t *testing.T) {
	r := NewBitReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBit(); err == nil {
		t.Error("read past end accepted")
	}
}

func TestBitReaderMalformedUE(t *testing.T) {
	// 40 zero bits: no marker bit within the 32-zero limit.
	r := NewBitReader(make([]byte, 5))
	if _, err := r.ReadUE(); err == nil {
		t.Error("malformed Exp-Golomb accepted")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	f := func(vals [16]int8) bool {
		var b Block4
		for i, v := range vals {
			b[i] = int32(v)
		}
		var w BitWriter
		writeBlock(&w, &b)
		r := NewBitReader(w.Bytes())
		var got Block4
		if err := readBlock(r, &got); err != nil {
			return false
		}
		return got == b
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestBlockWriteElidesTrailingZeros(t *testing.T) {
	sparse := Block4{5} // only the DC coefficient
	var w BitWriter
	writeBlock(&w, &sparse)
	var wDense BitWriter
	dense := Block4{5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	writeBlock(&wDense, &dense)
	if w.Bits() >= wDense.Bits() {
		t.Errorf("sparse block (%d bits) should be cheaper than dense (%d bits)",
			w.Bits(), wDense.Bits())
	}
}

func TestBitWriterReset(t *testing.T) {
	var w BitWriter
	w.WriteUE(100)
	w.Reset()
	if w.Bits() != 0 || len(w.Bytes()) != 0 {
		t.Error("Reset did not clear the writer")
	}
}
