package h264

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPosClass(t *testing.T) {
	// (0,0) even/even -> 0, (1,1) odd/odd -> 2, (1,0)/(0,1) -> 1.
	if posClass(0) != 0 {
		t.Error("index 0 should be class 0")
	}
	if posClass(5) != 2 { // (x=1,y=1)
		t.Error("index 5 should be class 2")
	}
	if posClass(1) != 1 || posClass(4) != 1 {
		t.Error("mixed positions should be class 1")
	}
	counts := [3]int{}
	for i := 0; i < 16; i++ {
		counts[posClass(i)]++
	}
	if counts != [3]int{4, 8, 4} {
		t.Errorf("class distribution = %v, want [4 8 4]", counts)
	}
}

func TestQuantZeroBlock(t *testing.T) {
	var b Block4
	if nz := Quant(&b, 24, true); nz != 0 {
		t.Errorf("zero block has %d non-zero levels", nz)
	}
	if b != (Block4{}) {
		t.Error("zero block changed")
	}
}

func TestQuantKillsSmallCoefficients(t *testing.T) {
	b := Block4{3, 0, 0, 0}
	if nz := Quant(&b, 36, false); nz != 0 {
		t.Errorf("tiny coefficient survived coarse quantisation: %v", b)
	}
}

func TestQuantPreservesSign(t *testing.T) {
	f := func(v int16, qpRaw uint8) bool {
		qp := int(qpRaw) % 30 // moderate QPs so values survive
		b := Block4{int32(v)*16 + 16000, 0, 0, 0}
		if v < 0 {
			b[0] = int32(v)*16 - 16000
		}
		orig := b[0]
		Quant(&b, qp, false)
		if orig > 0 && b[0] < 0 {
			return false
		}
		if orig < 0 && b[0] > 0 {
			return false
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestQuantNonZeroCount(t *testing.T) {
	b := Block4{16000, -16000, 2, 0, 16000}
	nz := Quant(&b, 24, false)
	got := 0
	for _, v := range b {
		if v != 0 {
			got++
		}
	}
	if got != nz {
		t.Errorf("reported %d non-zero, block has %d", nz, got)
	}
}

func TestQuantIntraLargerDeadZone(t *testing.T) {
	// Intra uses f = 2^qbits/3, inter 2^qbits/6: a value that rounds up
	// in intra mode may round down in inter mode, never the opposite.
	f := func(v uint16, qpRaw uint8) bool {
		qp := int(qpRaw) % 52
		bi := Block4{int32(v), 0}
		bp := bi
		Quant(&bi, qp, true)
		Quant(&bp, qp, false)
		return bi[0] >= bp[0]
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestQStepDoublesEverySix(t *testing.T) {
	for qp := 0; qp <= 45; qp++ {
		r := QStep(qp+6) / QStep(qp)
		if math.Abs(r-2) > 1e-9 {
			t.Fatalf("QStep(%d+6)/QStep(%d) = %v, want 2", qp, qp, r)
		}
	}
	if QStep(0) != 0.625 {
		t.Errorf("QStep(0) = %v, want 0.625", QStep(0))
	}
}

func TestDequantScalesWithQP(t *testing.T) {
	// Rescaling the same levels 6 QP higher doubles the output — the
	// defining property of the H.264 quantiser design.
	for qp := 0; qp <= 40; qp += 5 {
		a := Block4{7, -3, 12, 1, 5, -9, 2, 4, 0, 1, -1, 6, 3, -2, 8, -5}
		b := a
		Dequant(&a, qp)
		Dequant(&b, qp+6)
		for i := range a {
			if b[i] != 2*a[i] {
				t.Fatalf("qp %d index %d: %d vs %d, want exact doubling", qp, i, a[i], b[i])
			}
		}
	}
}

func TestQuantDCAndDequantDC(t *testing.T) {
	b := Block4{25600, -25600, 12800, 0}
	nz := QuantDC(&b, 24)
	if nz == 0 {
		t.Fatal("DC levels vanished")
	}
	if b[1] >= 0 {
		t.Error("sign lost in DC quantisation")
	}
	DequantDC(&b, 24)
	if b[0] <= 0 || b[1] >= 0 {
		t.Error("DC dequantisation sign/magnitude wrong")
	}
	// Low QP path (shift < 2) must not panic and must keep signs.
	c := Block4{1000, -1000}
	QuantDC(&c, 3)
	DequantDC(&c, 3)
	if c[0] < 0 || c[1] > 0 {
		t.Error("low-QP DC path wrong")
	}
}
