// Package trace defines the workload traces the architecture simulator
// replays: per functional-block iteration, the kernels that actually
// execute, how often, and the software cycles around them. A trace also
// carries the static profile triggers that the application programmer would
// embed in the binary as trigger instructions (paper Section 4); at run
// time the MPU refines those forecasts iteration by iteration.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// KernelLoad describes one kernel's activity in one block iteration.
type KernelLoad struct {
	Kernel ise.KernelID `json:"kernel"`
	// E is the number of executions in this iteration (ground truth).
	E int64 `json:"e"`
	// GapSW is the pure-software time preceding each execution (loop
	// control, address generation, data marshalling on the core).
	GapSW arch.Cycles `json:"gap_sw"`
}

// Iteration is one dynamic instance of a functional block (e.g. the
// deblocking filter of one video frame).
type Iteration struct {
	// Block is the functional-block ID.
	Block string `json:"block"`
	// Seq orders iterations of the same block (e.g. the frame number).
	Seq int `json:"seq"`
	// Phase discriminates trigger instructions of the same block that
	// sit on different program paths — e.g. the I-frame and P-frame
	// loops of a video encoder carry distinct trigger instructions with
	// separately profiled forecasts. Empty means the block has a single
	// trigger instruction.
	Phase string `json:"phase,omitempty"`
	// Prologue is the software time between the trigger instruction and
	// the first kernel-related code of the block.
	Prologue arch.Cycles `json:"prologue"`
	// Loads lists the kernels that execute in this iteration.
	Loads []KernelLoad `json:"loads"`
}

// TotalExecutions sums the execution counts of the iteration.
func (it *Iteration) TotalExecutions() int64 {
	var n int64
	for _, l := range it.Loads {
		n += l.E
	}
	return n
}

// Trace is a full application run.
type Trace struct {
	// App names the application the trace belongs to.
	App string `json:"app"`
	// Profile maps a profile key — see ProfileKey — to the static
	// trigger instruction the programmer embedded for that program path
	// (obtained from offline profiling).
	Profile map[string][]ise.Trigger `json:"profile"`
	// Iterations is the dynamic block sequence in program order.
	Iterations []Iteration `json:"iterations"`

	// scheds memoizes Merge(Iterations[i].Loads) for every iteration. A
	// trace is immutable once built but replayed once per (policy,
	// resource-point) pair of a sweep, so re-merging per run is pure
	// waste. Built lazily on first use, safe for concurrent replays via
	// mergeOnce.
	scheds    []Schedule
	mergeOnce sync.Once
}

// MergedLoads returns the merged single-core execution schedule of
// iteration i — Merge(tr.Iterations[i].Loads), computed once per trace and
// shared by every subsequent replay. Callers must not mutate it. The trace
// must not be modified after the first call, and must be valid (Validate).
func (tr *Trace) MergedLoads(i int) *Schedule {
	tr.mergeOnce.Do(func() {
		tr.scheds = make([]Schedule, len(tr.Iterations))
		for j := range tr.Iterations {
			tr.scheds[j] = *Merge(tr.Iterations[j].Loads)
		}
	})
	return &tr.scheds[i]
}

// Validate checks the trace against an application.
func (tr *Trace) Validate(app *ise.Application) error {
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		blk := app.Block(it.Block)
		if blk == nil {
			return fmt.Errorf("trace: iteration %d references unknown block %q", i, it.Block)
		}
		if err := it.checkLoads(); err != nil {
			return fmt.Errorf("trace: iteration %d (block %q) %w", i, it.Block, err)
		}
		for _, l := range it.Loads {
			if blk.Kernel(l.Kernel) == nil {
				return fmt.Errorf("trace: iteration %d (block %q) references unknown kernel %q", i, it.Block, l.Kernel)
			}
			if l.E < 0 || l.GapSW < 0 {
				return fmt.Errorf("trace: iteration %d kernel %q has negative load", i, l.Kernel)
			}
		}
	}
	for id, ts := range tr.Profile {
		block := id
		if i := strings.IndexByte(id, '#'); i >= 0 {
			block = id[:i]
		}
		if app.Block(block) == nil {
			return fmt.Errorf("trace: profile references unknown block %q", id)
		}
		for _, t := range ts {
			if err := t.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// maxKernels bounds the kernels one iteration may list: a schedule names
// each execution's kernel by a one-byte index.
const maxKernels = 256

// checkLoads rejects a load list with no single-core schedule: more than
// maxKernels entries, a kernel listed twice, or more executions than a
// schedule's 32-bit prefix counts hold.
func (it *Iteration) checkLoads() error {
	if len(it.Loads) > maxKernels {
		return fmt.Errorf("lists %d kernels, more than %d", len(it.Loads), maxKernels)
	}
	var execs int64
	for i, l := range it.Loads {
		if l.E > 0 {
			if l.E > math.MaxInt32-execs {
				return fmt.Errorf("has more than %d executions", math.MaxInt32)
			}
			execs += l.E
		}
		for _, m := range it.Loads[:i] {
			if m.Kernel == l.Kernel {
				return fmt.Errorf("lists kernel %q twice", l.Kernel)
			}
		}
	}
	return nil
}

// Stride is the spacing, in executions, of a Schedule's prefix-count rows.
const Stride = 32

// Schedule is the merged single-core execution schedule of one block
// iteration. Kernel k is the iteration's k-th load with executions (E > 0),
// and every per-kernel slice is indexed by k. Besides the execution order,
// it summarises the schedule for replaying a stretch of it in closed form:
// while every kernel in the stretch runs at a fixed latency, the stretch's
// timing follows from per-kernel counts alone. Prefix gives the counts up
// to every chunk boundary (the multiples of Stride, and the end), so a
// replayer that knows its counts at the cursor knows those of the stretch
// up to any later boundary; After places each kernel's last execution.
type Schedule struct {
	// Kernels[k] is kernel k's ID.
	Kernels []ise.KernelID
	// Gap[k] is the software time preceding each execution of kernel k.
	Gap []arch.Cycles
	// Count[k] is the number of executions of kernel k.
	Count []int64
	// Order holds the kernel index of every execution, in schedule order.
	Order []uint8
	// After[k*K+j] is the number of executions of kernel j that follow the
	// last execution of kernel k (K = len(Kernels)).
	After []int64
	// Prefix[c*K+j] is the number of executions of kernel j in
	// Order[:min(c*Stride, len(Order))], for c = 0..Chunks(); its last row
	// is Count.
	Prefix []int32
}

// Chunks returns the index of the last Prefix row: the number of chunks
// of Stride executions Order spans, the last one possibly shorter.
func (s *Schedule) Chunks() int { return (len(s.Order) + Stride - 1) / Stride }

// Merge interleaves the kernel loads of an iteration into the single-core
// execution order. Executions of different kernels are merged by fractional
// position ((j+0.5)/E), modelling the loop structure of real functional
// blocks where kernels alternate per macroblock; ties break by kernel ID so
// the schedule is deterministic. The loads must list each kernel at most
// once, at most 256 kernels and at most 2³¹−1 executions (Validate rejects
// other traces).
func Merge(loads []KernelLoad) *Schedule {
	s := kernelsOf(loads)
	n := len(s.Kernels)
	if n > maxKernels {
		panic(fmt.Sprintf("trace: Merge of %d kernels, more than %d", n, maxKernels))
	}
	m := newMerger(s)
	if m.left > math.MaxInt32 {
		panic(fmt.Sprintf("trace: Merge of %d executions, more than %d", m.left, math.MaxInt32))
	}
	s.Order = make([]uint8, m.left)
	// The prefix rows are written in the same pass: after each chunk, a
	// kernel's count is its merge cursor's.
	s.Prefix = make([]int32, (s.Chunks()+1)*n)
	for c := range s.Chunks() {
		order := s.Order[c*Stride : min((c+1)*Stride, len(s.Order))]
		for p := range order {
			order[p] = uint8(m.next())
		}
		row := s.Prefix[(c+1)*n : (c+2)*n]
		for _, cur := range m.curs {
			row[cur.k] = int32(cur.next)
		}
	}
	// One backward pass: after[j] counts kernel j's executions behind the
	// cursor, so where after[k] is still 0 the cursor is at k's last
	// execution, and after is k's row.
	s.After = make([]int64, n*n)
	after := make([]int64, n)
	for p := len(s.Order) - 1; p >= 0; p-- {
		k := int(s.Order[p])
		if after[k] == 0 {
			copy(s.After[k*n:(k+1)*n], after)
		}
		after[k]++
	}
	return s
}

// kernelsOf returns the per-kernel part of the loads' schedule: the loads
// with executions, in load order.
func kernelsOf(loads []KernelLoad) *Schedule {
	s := &Schedule{}
	for _, l := range loads {
		if l.E > 0 {
			s.Kernels = append(s.Kernels, l.Kernel)
			s.Gap = append(s.Gap, l.GapSW)
			s.Count = append(s.Count, l.E)
		}
	}
	return s
}

// merger walks the merged order of a schedule's kernels (see Merge) one
// execution at a time.
type merger struct {
	curs []mergeCursor // one per kernel, sorted by kernel ID
	left int64         // executions not yet walked
}

type mergeCursor struct {
	k    int     // kernel index in the schedule
	e    int64   // the kernel's execution count
	next int64   // executions walked so far
	pos  float64 // fractional position of the next execution
}

func newMerger(s *Schedule) merger {
	m := merger{curs: make([]mergeCursor, len(s.Count))}
	for k, e := range s.Count {
		m.left += e
		m.curs[k] = mergeCursor{k: k, e: e, pos: 0.5 / float64(e)}
	}
	sort.Slice(m.curs, func(i, j int) bool { return s.Kernels[m.curs[i].k] < s.Kernels[m.curs[j].k] })
	return m
}

// next returns the kernel index of the next execution; it must be called
// only while m.left > 0. The earliest fractional position wins, the first
// cursor in kernel order on a tie. An exhausted cursor's position is +Inf,
// so it never wins while another has executions left.
func (m *merger) next() int {
	best := 0
	for i := 1; i < len(m.curs); i++ {
		if m.curs[i].pos < m.curs[best].pos {
			best = i
		}
	}
	c := &m.curs[best]
	c.next++
	if c.next < c.e {
		c.pos = (float64(c.next) + 0.5) / float64(c.e)
	} else {
		c.pos = math.Inf(1)
	}
	m.left--
	return c.k
}

// RISCTriggers computes the trigger tuple {K, e, tf, tb} of one iteration
// under RISC-mode timing: the wall-clock time to each kernel's first
// execution and the average wall-clock gap between consecutive executions
// when every execution takes the kernel's RISC latency. This is the offline
// profiling run that seeds the static trigger instructions.
func RISCTriggers(app *ise.Application, it *Iteration) ([]ise.Trigger, error) {
	blk := app.Block(it.Block)
	if blk == nil {
		return nil, fmt.Errorf("trace: unknown block %q", it.Block)
	}
	if err := it.checkLoads(); err != nil {
		return nil, fmt.Errorf("trace: block %q %w", it.Block, err)
	}
	type track struct {
		k       *ise.Kernel
		first   arch.Cycles
		lastEnd arch.Cycles
		gaps    arch.Cycles
		n       int64
	}
	s := kernelsOf(it.Loads)
	tracks := make([]track, len(s.Kernels))
	for k, id := range s.Kernels {
		if tracks[k].k = blk.Kernel(id); tracks[k].k == nil {
			return nil, fmt.Errorf("trace: unknown kernel %q in block %q", id, it.Block)
		}
	}
	t := it.Prologue
	for m := newMerger(s); m.left > 0; {
		k := m.next()
		t += s.Gap[k]
		tr := &tracks[k]
		if tr.n == 0 {
			tr.first = t
		} else {
			tr.gaps += t - tr.lastEnd
		}
		tr.n++
		t += tr.k.RISCLatency
		tr.lastEnd = t
	}
	out := make([]ise.Trigger, len(s.Kernels))
	for k, id := range s.Kernels {
		tr := &tracks[k]
		var tb arch.Cycles
		if tr.n > 1 {
			tb = tr.gaps / arch.Cycles(tr.n-1)
		}
		out[k] = ise.Trigger{Kernel: id, E: tr.n, TF: tr.first, TB: tb}
	}
	return out, nil
}

// ProfileKey is the Profile map key of a block's trigger instruction on
// the given program path.
func ProfileKey(block, phase string) string {
	if phase == "" {
		return block
	}
	return block + "#" + phase
}

// ProfileFor returns the static trigger instruction for one iteration,
// falling back to the block's phase-less profile if the phase has none.
func (tr *Trace) ProfileFor(block, phase string) []ise.Trigger {
	if ts, ok := tr.Profile[ProfileKey(block, phase)]; ok {
		return ts
	}
	return tr.Profile[block]
}

// BuildProfile computes the static per-block (and per-phase) trigger
// instructions from the whole trace by averaging the RISC-mode trigger
// tuples over all iterations of each block's program path, and stores them
// in tr.Profile.
func (tr *Trace) BuildProfile(app *ise.Application) error {
	type acc struct {
		e, tf, tb float64
		n         int64
	}
	accs := make(map[string]map[ise.KernelID]*acc)
	order := make(map[string][]ise.KernelID)
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		trig, err := RISCTriggers(app, it)
		if err != nil {
			return err
		}
		key := ProfileKey(it.Block, it.Phase)
		m := accs[key]
		if m == nil {
			m = make(map[ise.KernelID]*acc)
			accs[key] = m
		}
		for _, t := range trig {
			a := m[t.Kernel]
			if a == nil {
				a = &acc{}
				m[t.Kernel] = a
				order[key] = append(order[key], t.Kernel)
			}
			a.e += float64(t.E)
			a.tf += float64(t.TF)
			a.tb += float64(t.TB)
			a.n++
		}
	}
	tr.Profile = make(map[string][]ise.Trigger, len(accs))
	for block, m := range accs {
		ts := make([]ise.Trigger, 0, len(m))
		for _, kid := range order[block] {
			a := m[kid]
			n := float64(a.n)
			ts = append(ts, ise.Trigger{
				Kernel: kid,
				E:      int64(a.e/n + 0.5),
				TF:     arch.Cycles(a.tf/n + 0.5),
				TB:     arch.Cycles(a.tb/n + 0.5),
			})
		}
		tr.Profile[block] = ts
	}
	return nil
}

// Encode writes the trace as JSON.
func (tr *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// Decode reads a JSON trace.
func Decode(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &tr, nil
}

// Summary aggregates a trace for reports: iterations and executions per
// block, and per-kernel execution totals.
type Summary struct {
	Iterations      int
	Executions      int64
	BlockIterations map[string]int
	KernelTotals    map[ise.KernelID]int64
}

// Summarize computes the trace summary.
func (tr *Trace) Summarize() Summary {
	s := Summary{
		BlockIterations: make(map[string]int),
		KernelTotals:    make(map[ise.KernelID]int64),
	}
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		s.Iterations++
		s.BlockIterations[it.Block]++
		for _, l := range it.Loads {
			s.Executions += l.E
			s.KernelTotals[l.Kernel] += l.E
		}
	}
	return s
}
