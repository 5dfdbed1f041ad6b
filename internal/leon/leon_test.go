package leon

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func run(t *testing.T, src string, setup func(*CPU)) *CPU {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	c := New(1024)
	if setup != nil {
		setup(c)
	}
	c.Load(prog)
	if err := c.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestALUBasics(t *testing.T) {
	c := run(t, `
		movi r1, 7
		movi r2, 5
		add  r3, r1, r2
		sub  r4, r1, r2
		mul  r5, r1, r2
		div  r6, r1, r2
		and  r7, r1, r2
		or   r8, r1, r2
		xor  r9, r1, r2
		halt
	`, nil)
	want := map[int]int32{3: 12, 4: 2, 5: 35, 6: 1, 7: 5, 8: 7, 9: 2}
	for r, v := range want {
		if c.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, c.Regs[r], v)
		}
	}
}

func TestShifts(t *testing.T) {
	c := run(t, `
		movi r1, -8
		sll  r2, r1, 1
		srl  r3, r1, 1
		sra  r4, r1, 1
		halt
	`, nil)
	if c.Regs[2] != -16 {
		t.Errorf("sll = %d", c.Regs[2])
	}
	if c.Regs[3] != 0x7FFFFFFC {
		t.Errorf("srl = %d", c.Regs[3])
	}
	if c.Regs[4] != -4 {
		t.Errorf("sra = %d", c.Regs[4])
	}
}

func TestR0Hardwired(t *testing.T) {
	c := run(t, `
		movi r0, 99
		addi r0, r0, 5
		add  r1, r0, r0
		halt
	`, nil)
	if c.Regs[0] != 0 || c.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d; r0 must stay zero", c.Regs[0], c.Regs[1])
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	c := run(t, `
		movi r1, -123456
		st   r1, r0, 100
		ld   r2, r0, 100
		movi r3, 200
		stb  r3, r0, 104
		ldub r4, r0, 104
		halt
	`, nil)
	if c.Regs[2] != -123456 {
		t.Errorf("word round trip = %d", c.Regs[2])
	}
	if c.Regs[4] != 200 {
		t.Errorf("byte round trip = %d", c.Regs[4])
	}
}

func TestLoopAndBranch(t *testing.T) {
	// Sum 1..10.
	c := run(t, `
		movi r1, 0   ; i
		movi r2, 0   ; sum
		movi r3, 10
	loop:
		addi r1, r1, 1
		add  r2, r2, r1
		bne  r1, r3, loop
		halt
	`, nil)
	if c.Regs[2] != 55 {
		t.Errorf("sum = %d, want 55", c.Regs[2])
	}
}

func TestCycleAccounting(t *testing.T) {
	c := run(t, `
		movi r1, 1   ; 1 cycle
		ld   r2, r0, 0  ; 2 cycles
		mul  r3, r1, r1 ; 4 cycles
		halt            ; 0
	`, nil)
	if c.Cycles != 7 {
		t.Errorf("cycles = %d, want 7", c.Cycles)
	}
	if c.Instructions != 4 {
		t.Errorf("instructions = %d, want 4", c.Instructions)
	}
}

func TestTakenBranchPenalty(t *testing.T) {
	taken := run(t, `
		movi r1, 1
		beq  r1, r1, out
		nop
	out:	halt
	`, nil)
	notTaken := run(t, `
		movi r1, 1
		beq  r1, r0, out
		nop
	out:	halt
	`, nil)
	if taken.Cycles != notTaken.Cycles {
		// taken: movi(1) + beq(1+1) = 3; not taken: movi + beq(1) + nop = 3.
		t.Logf("taken %d vs not taken %d cycles", taken.Cycles, notTaken.Cycles)
	}
	// halt retires too: movi+beq+halt vs movi+beq+nop+halt.
	if taken.Instructions != 3 || notTaken.Instructions != 4 {
		t.Errorf("instruction counts %d/%d, want 3/4", taken.Instructions, notTaken.Instructions)
	}
}

func TestRunawayBudget(t *testing.T) {
	prog := MustAssemble(`
	loop:	jmp loop
	`)
	c := New(64)
	c.Load(prog)
	if err := c.Run(1000); err == nil {
		t.Error("infinite loop not caught by the instruction budget")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2, r3",
		"add r1, r2",       // wrong arity
		"add r1, r2, r99",  // bad register
		"movi r1, zz",      // bad immediate
		"beq r1, r2, nope", // undefined label
		"dup: nop\ndup: nop",
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("assembled invalid program %q", src)
		}
	}

	c := New(16)
	c.Load(MustAssemble("ld r1, r0, 100\nhalt"))
	if err := c.Run(10); err == nil {
		t.Error("out-of-range load accepted")
	}
	c2 := New(16)
	c2.Load(MustAssemble("movi r1, 0\ndiv r2, r1, r1\nhalt"))
	if err := c2.Run(10); err == nil {
		t.Error("division by zero accepted")
	}
}

func TestMeasureSADMatchesGo(t *testing.T) {
	f := func(seed uint8) bool {
		cur := make([]byte, 256)
		ref := make([]byte, 256)
		s := uint32(seed) + 1
		next := func() byte {
			s = s*1664525 + 1013904223
			return byte(s >> 16)
		}
		var want int32
		for i := range cur {
			cur[i], ref[i] = next(), next()
			d := int32(cur[i]) - int32(ref[i])
			if d < 0 {
				d = -d
			}
			want += d
		}
		sad, cycles, err := MeasureSAD(cur, ref)
		return err == nil && sad == want && cycles > 0
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestMeasureSADCycles(t *testing.T) {
	cur := make([]byte, 256)
	ref := make([]byte, 256)
	_, cycles, err := MeasureSAD(cur, ref)
	if err != nil {
		t.Fatal(err)
	}
	// 64 iterations of a ~45-cycle loop body: the measured RISC-mode
	// cost of an optimised word-at-a-time SAD.
	if cycles < 2000 || cycles > 4000 {
		t.Errorf("SAD cycles = %d, expected in [2000, 4000]", cycles)
	}
}

func TestMeasureQuantMatchesGo(t *testing.T) {
	coeffs := [16]int32{100, -200, 3000, -4, 0, 77, -880, 12345, -1, 9, 0, 0, 4096, -4096, 64, -64}
	const mf, f, qbits = 13107, 43690, 17
	out, cycles, err := MeasureQuant(coeffs, mf, f, qbits)
	if err != nil {
		t.Fatal(err)
	}
	if cycles <= 0 {
		t.Error("no cycles measured")
	}
	for i, c := range coeffs {
		neg := c < 0
		if neg {
			c = -c
		}
		want := (c*mf + f) >> qbits
		if neg {
			want = -want
		}
		if out[i] != want {
			t.Errorf("coeff %d: level %d, want %d", i, out[i], want)
		}
	}
}

func TestMeasureBSMatchesGo(t *testing.T) {
	cases := []struct {
		pI, qI, pC, qC bool
		dx, dy         int32
		want           int32
	}{
		{true, false, false, false, 0, 0, 3},
		{false, true, true, true, 9, 9, 3},
		{false, false, true, false, 0, 0, 1},
		{false, false, false, false, 2, 0, 2},
		{false, false, false, false, 0, -2, 2},
		{false, false, false, false, 1, 1, 0},
		{false, false, false, false, 0, 0, 0},
	}
	for _, c := range cases {
		got, cycles, err := MeasureBS(c.pI, c.qI, c.pC, c.qC, c.dx, c.dy)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("BS(%+v) = %d, want %d", c, got, c.want)
		}
		if cycles <= 0 || cycles > 200 {
			t.Errorf("BS cycles = %d", cycles)
		}
	}
}

func TestMeasureDCTMatchesReference(t *testing.T) {
	// Compare against an independent Go evaluation of the same
	// butterflies (the h264 package's DCT4 is cross-checked in the
	// iselib calibration tests to avoid an import here).
	ref := func(b [16]int32) [16]int32 {
		var tm [16]int32
		for i := 0; i < 4; i++ {
			r := i * 4
			s0, s1 := b[r+0]+b[r+3], b[r+1]+b[r+2]
			d0, d1 := b[r+0]-b[r+3], b[r+1]-b[r+2]
			tm[r+0], tm[r+1], tm[r+2], tm[r+3] = s0+s1, 2*d0+d1, s0-s1, d0-2*d1
		}
		var out [16]int32
		for i := 0; i < 4; i++ {
			s0, s1 := tm[i+0]+tm[i+12], tm[i+4]+tm[i+8]
			d0, d1 := tm[i+0]-tm[i+12], tm[i+4]-tm[i+8]
			out[i+0], out[i+4], out[i+8], out[i+12] = s0+s1, 2*d0+d1, s0-s1, d0-2*d1
		}
		return out
	}
	blk := [16]int32{5, -3, 120, 44, -90, 7, 0, 1, 33, -33, 8, -8, 250, -250, 100, -100}
	got, cycles, err := MeasureDCT(blk)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref(blk); got != want {
		t.Errorf("DCT mismatch:\n got %v\nwant %v", got, want)
	}
	if cycles < 150 || cycles > 500 {
		t.Errorf("DCT cycles = %d, want a few hundred", cycles)
	}
}

func TestMeasureFiltMatchesGo(t *testing.T) {
	// Reference implementation of the same per-row filter.
	ref := func(rows [4][4]uint8, alpha, beta, tc int32) [4][4]uint8 {
		out := rows
		for r := 0; r < 4; r++ {
			p1, p0 := int32(rows[r][0]), int32(rows[r][1])
			q0, q1 := int32(rows[r][2]), int32(rows[r][3])
			abs := func(v int32) int32 {
				if v < 0 {
					return -v
				}
				return v
			}
			if abs(q0-p0) >= alpha || abs(p1-p0) >= beta || abs(q1-q0) >= beta {
				continue
			}
			delta := ((q0-p0)<<2 + p1 - q1 + 4) >> 3
			if delta < -tc {
				delta = -tc
			}
			if delta > tc {
				delta = tc
			}
			out[r][1] = uint8(p0 + delta)
			out[r][2] = uint8(q0 - delta)
		}
		return out
	}

	cases := [][4][4]uint8{
		{{100, 100, 104, 104}, {100, 101, 105, 104}, {90, 100, 108, 110}, {100, 100, 100, 100}},
		{{30, 30, 220, 220}, {10, 20, 200, 210}, {0, 0, 255, 255}, {128, 128, 128, 128}},
	}
	for i, rows := range cases {
		got, cycles, err := MeasureFilt(rows, 20, 6, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref(rows, 20, 6, 2); got != want {
			t.Errorf("case %d:\n got %v\nwant %v", i, got, want)
		}
		if cycles <= 0 || cycles > 400 {
			t.Errorf("case %d: cycles = %d", i, cycles)
		}
	}
}
