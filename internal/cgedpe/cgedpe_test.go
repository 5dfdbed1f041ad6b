package cgedpe

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/h264"
	"mrts/internal/video"
)

func TestBasicALU(t *testing.T) {
	e := New(64)
	prog := []Instr{
		Word(Slot{Op: OpMovI, Dst: 1, Imm: 7}, Slot{Op: OpMovI, Dst: 33, Imm: 5}),
		Word(Slot{Op: OpAdd, Dst: 2, A: 1, B: 33}, Slot{Op: OpSub, Dst: 34, A: 1, B: 33}),
		Word(Slot{Op: OpMul, Dst: 3, A: 1, B: 33}, Slot{Op: OpNop}),
		Single(Slot{Op: OpHalt}),
	}
	if err := e.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if e.Regs[2] != 12 || e.Regs[34] != 2 || e.Regs[3] != 35 {
		t.Errorf("regs = %d %d %d", e.Regs[2], e.Regs[34], e.Regs[3])
	}
	// movi(1) + add/sub word(1) + mul word(2) = 4 cycles.
	if e.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", e.Cycles)
	}
}

func TestDualIssueCostIsMaxOfSlots(t *testing.T) {
	e := New(64)
	prog := []Instr{
		Word(Slot{Op: OpDiv, Dst: 1, A: 2, B: 3}, Slot{Op: OpAdd, Dst: 33, A: 4, B: 5}),
		Single(Slot{Op: OpHalt}),
	}
	e.Regs[3] = 1
	if err := e.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.Cycles != 10 { // div dominates the word
		t.Errorf("cycles = %d, want 10", e.Cycles)
	}
}

func TestZeroOverheadLoop(t *testing.T) {
	// Accumulate 1 ten times: loop body of one word.
	e := New(64)
	prog := []Instr{
		Single(Slot{Op: OpMovI, Dst: 1, Imm: 0}),
		Loop(10, 1),
		Single(Slot{Op: OpAddI, Dst: 1, A: 1, Imm: 1}),
		Single(Slot{Op: OpHalt}),
	}
	if err := e.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if e.Regs[1] != 10 {
		t.Errorf("loop executed %d times, want 10", e.Regs[1])
	}
	// movi 1 + loop setup 1 + 10 body words (zero loop overhead) = 12.
	if e.Cycles != 12 {
		t.Errorf("cycles = %d, want 12 (zero-overhead loop)", e.Cycles)
	}
}

func TestLoadValidatesLoops(t *testing.T) {
	e := New(64)
	if err := e.Load([]Instr{Loop(3, 0), Single(Slot{Op: OpHalt})}); err == nil {
		t.Error("empty loop body accepted")
	}
	if err := e.Load([]Instr{Loop(3, 9)}); err == nil {
		t.Error("loop exceeding program accepted")
	}
	if err := e.Load([]Instr{
		Loop(3, 2), Loop(2, 1), Single(Slot{Op: OpNop}), Single(Slot{Op: OpHalt}),
	}); err == nil {
		t.Error("nested zero-overhead loop accepted")
	}
}

func TestSingleLoadStoreUnit(t *testing.T) {
	e := New(64)
	prog := []Instr{
		Word(Slot{Op: OpLd, Dst: 1, A: 0}, Slot{Op: OpSt, A: 0, B: 1}),
		Single(Slot{Op: OpHalt}),
	}
	if err := e.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err == nil {
		t.Error("two memory operations in one word accepted")
	}
}

func TestContextSwitchCost(t *testing.T) {
	// A straight-line program of 40 words crosses one context boundary.
	var prog []Instr
	for i := 0; i < 40; i++ {
		prog = append(prog, Single(Slot{Op: OpAddI, Dst: 1, A: 1, Imm: 1}))
	}
	prog = append(prog, Single(Slot{Op: OpHalt}))
	e := New(64)
	if err := e.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(1000); err != nil {
		t.Fatal(err)
	}
	if e.ContextSwitches != 1 {
		t.Errorf("context switches = %d, want 1", e.ContextSwitches)
	}
	// 40 single-cycle words + 1 switch * 2 cycles = 42.
	if e.Cycles != 42 {
		t.Errorf("cycles = %d, want 42", e.Cycles)
	}
}

func TestScratchBounds(t *testing.T) {
	e := New(8)
	if err := e.Load([]Instr{
		Single(Slot{Op: OpLd, Dst: 1, A: 0, Imm: 100}),
		Single(Slot{Op: OpHalt}),
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err == nil {
		t.Error("out-of-range scratch access accepted")
	}
}

func TestSad4Op(t *testing.T) {
	e := New(64)
	// a = bytes 10,20,30,40; b = bytes 12,18,35,40 -> SAD 2+2+5+0 = 9.
	a := int32(10) | 20<<8 | 30<<16 | 40<<24
	b := int32(12) | 18<<8 | 35<<16 | 40<<24
	prog := []Instr{
		Word(Slot{Op: OpMovI, Dst: 1, Imm: a}, Slot{Op: OpMovI, Dst: 33, Imm: b}),
		Single(Slot{Op: OpMovI, Dst: 2, Imm: 100}),
		Single(Slot{Op: OpSad4, Dst: 2, A: 1, B: 33}),
		Single(Slot{Op: OpHalt}),
	}
	if err := e.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	if e.Regs[2] != 109 { // accumulates onto the previous value
		t.Errorf("sad4 accumulator = %d, want 109", e.Regs[2])
	}
}

func TestMeasureSADMatchesGo(t *testing.T) {
	f := func(seed uint8) bool {
		rng := video.NewRNG(uint64(seed) + 1)
		cur := make([]byte, 256)
		ref := make([]byte, 256)
		var want int32
		for i := range cur {
			cur[i] = byte(rng.Intn(256))
			ref[i] = byte(rng.Intn(256))
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
	// 64 iterations x 3 words + setup: the CG fabric streams a 16x16
	// SAD in ~200 cycles — the ISE library's sad.cg1 figure.
	if cycles < 150 || cycles > 260 {
		t.Errorf("SAD cycles = %d, want ~200", cycles)
	}
}

func TestMeasureDCTMatchesReference(t *testing.T) {
	f := func(vals [16]int16) bool {
		var blk [16]int32
		var ref h264.Block4
		for i, v := range vals {
			blk[i] = int32(v % 256)
			ref[i] = int32(v % 256)
		}
		got, cycles, err := MeasureDCT(blk)
		if err != nil || cycles <= 0 {
			return false
		}
		h264.DCT4(&ref)
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestMeasureQuantMatchesReference(t *testing.T) {
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

func TestMeasureSATDMatchesReference(t *testing.T) {
	f := func(vals [16]int16) bool {
		var blk [16]int32
		var ref h264.Block4
		for i, v := range vals {
			blk[i] = int32(v % 256)
			ref[i] = blk[i]
		}
		got, cycles, err := MeasureSATD(blk)
		if err != nil || cycles <= 0 {
			return false
		}
		return got == h264.SATD4(ref)
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestMeasureSATDCycles(t *testing.T) {
	var blk [16]int32
	for i := range blk {
		blk[i] = int32(i * 3)
	}
	_, cycles, err := MeasureSATD(blk)
	if err != nil {
		t.Fatal(err)
	}
	// Two Hadamard passes plus the absolute-sum loop: ~150 cycles — the
	// library's satd.cg1 (140) regime.
	if cycles < 100 || cycles > 250 {
		t.Errorf("SATD cycles = %d, want ~150", cycles)
	}
}
