package h264

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZigzagIsPermutation(t *testing.T) {
	seen := [16]bool{}
	for _, idx := range zigzag4 {
		if idx < 0 || idx > 15 || seen[idx] {
			t.Fatalf("zigzag4 is not a permutation: %v", zigzag4)
		}
		seen[idx] = true
	}
	// Starts at DC, ends at the highest frequency.
	if zigzag4[0] != 0 || zigzag4[15] != 15 {
		t.Errorf("zigzag endpoints: %d .. %d", zigzag4[0], zigzag4[15])
	}
}

func TestCAVLCEmptyBlock(t *testing.T) {
	var b Block4
	st := EstimateCAVLC(&b)
	if st.TotalCoeffs != 0 || st.Bits != 1 {
		t.Errorf("empty block: %+v, want 0 coeffs / 1 bit", st)
	}
}

func TestCAVLCCountsCoefficients(t *testing.T) {
	b := Block4{5, -1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	st := EstimateCAVLC(&b)
	if st.TotalCoeffs != 3 {
		t.Errorf("TotalCoeffs = %d, want 3", st.TotalCoeffs)
	}
	if st.Bits <= 3 {
		t.Errorf("Bits = %d, implausibly small", st.Bits)
	}
}

func TestCAVLCTrailingOnes(t *testing.T) {
	// In scan order: 5 (DC), then +/-1s at the tail.
	b := Block4{}
	b[zigzag4[0]] = 5
	b[zigzag4[1]] = -1
	b[zigzag4[2]] = 1
	st := EstimateCAVLC(&b)
	if st.TrailingOnes != 2 {
		t.Errorf("TrailingOnes = %d, want 2", st.TrailingOnes)
	}
}

func TestCAVLCTrailingOnesCapped(t *testing.T) {
	b := Block4{}
	for i := 0; i < 5; i++ {
		b[zigzag4[i]] = 1
	}
	st := EstimateCAVLC(&b)
	if st.TrailingOnes > 3 {
		t.Errorf("TrailingOnes = %d, spec caps at 3", st.TrailingOnes)
	}
	if st.TotalCoeffs != 5 {
		t.Errorf("TotalCoeffs = %d, want 5", st.TotalCoeffs)
	}
}

func TestCAVLCTotalZeros(t *testing.T) {
	// Zeros *between* non-zero coefficients count; the tail after the
	// last non-zero does not.
	b := Block4{}
	b[zigzag4[0]] = 3
	b[zigzag4[3]] = 2 // two zeros between
	st := EstimateCAVLC(&b)
	if st.TotalZeros != 2 {
		t.Errorf("TotalZeros = %d, want 2", st.TotalZeros)
	}
}

func TestCAVLCBitsGrowWithLevels(t *testing.T) {
	small := Block4{2}
	large := Block4{2000}
	if EstimateCAVLC(&small).Bits >= EstimateCAVLC(&large).Bits {
		t.Error("larger level should cost more bits")
	}
}

func TestCAVLCBitsGrowWithDensity(t *testing.T) {
	sparse := Block4{9}
	var dense Block4
	for i := range dense {
		dense[i] = 9
	}
	if EstimateCAVLC(&sparse).Bits >= EstimateCAVLC(&dense).Bits {
		t.Error("denser block should cost more bits")
	}
}

func TestCAVLCPositiveBitsProperty(t *testing.T) {
	f := func(vals [16]int8) bool {
		var b Block4
		nz := 0
		for i, v := range vals {
			b[i] = int32(v)
			if v != 0 {
				nz++
			}
		}
		st := EstimateCAVLC(&b)
		return st.Bits >= 1 && st.TotalCoeffs == nz
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestLevelBits(t *testing.T) {
	if levelBits(1) != 2 { // 1 bit magnitude + sign
		t.Errorf("levelBits(1) = %d", levelBits(1))
	}
	if levelBits(2) >= levelBits(200) {
		t.Error("levelBits must grow with magnitude")
	}
}
