package h264

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDCT4DC(t *testing.T) {
	var b Block4
	for i := range b {
		b[i] = 10
	}
	DCT4(&b)
	if b[0] != 160 {
		t.Errorf("DC coefficient = %d, want 16*10", b[0])
	}
	for i := 1; i < 16; i++ {
		if b[i] != 0 {
			t.Errorf("AC coefficient %d = %d, want 0 for flat block", i, b[i])
		}
	}
}

func TestDCT4Linear(t *testing.T) {
	// The forward transform is linear: DCT(a+b) = DCT(a) + DCT(b).
	f := func(av, bv [16]int16) bool {
		var a, b, sum Block4
		for i := range a {
			a[i] = int32(av[i] % 128)
			b[i] = int32(bv[i] % 128)
			sum[i] = a[i] + b[i]
		}
		DCT4(&a)
		DCT4(&b)
		DCT4(&sum)
		for i := range sum {
			if sum[i] != a[i]+b[i] {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestTransformQuantPipelineError(t *testing.T) {
	// The real invariant of the H.264 integer transform: the full
	// DCT -> Quant -> Dequant -> IDCT pipeline reconstructs any
	// pixel-range residual within a small multiple of the quantiser
	// step (the scaling lives in Quant/Dequant, not in the raw
	// transform pair).
	for _, qp := range []int{0, 6, 12, 24, 36, 51} {
		bound := int32(2*QStep(qp)) + 2
		f := func(vals [16]int16) bool {
			var b Block4
			for i, v := range vals {
				b[i] = int32(v % 256)
			}
			orig := b
			DCT4(&b)
			Quant(&b, qp, false)
			Dequant(&b, qp)
			IDCT4(&b)
			for i := range b {
				d := b[i] - orig[i]
				if d < 0 {
					d = -d
				}
				if d > bound {
					return false
				}
			}
			return true
		}
		const seed = 1
		if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}); err != nil {
			t.Errorf("seed %d, qp %d: %v", seed, qp, err)
		}
	}
}

func TestIDCTZero(t *testing.T) {
	var b Block4
	IDCT4(&b)
	if b != (Block4{}) {
		t.Error("IDCT of zero block not zero")
	}
}

func TestHadamardInvolution(t *testing.T) {
	// The 4x4 Hadamard transform is self-inverse up to a factor 16.
	f := func(vals [16]int16) bool {
		var b Block4
		for i, v := range vals {
			b[i] = int32(v % 1024)
		}
		orig := b
		Hadamard4(&b)
		Hadamard4(&b)
		for i := range b {
			if b[i] != orig[i]*16 {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestSATDZeroForZero(t *testing.T) {
	if SATD4(Block4{}) != 0 {
		t.Error("SATD of zero block should be 0")
	}
}

func TestSATDNonNegative(t *testing.T) {
	f := func(vals [16]int16) bool {
		var b Block4
		for i, v := range vals {
			b[i] = int32(v % 256)
		}
		return SATD4(b) >= 0
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestSATDScalesWithEnergy(t *testing.T) {
	small := Block4{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	var large Block4
	for i := range large {
		large[i] = 50
	}
	if SATD4(small) >= SATD4(large) {
		t.Error("SATD of a flat bright residual should exceed a single small one")
	}
}
