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

	// merged memoizes Merge(Iterations[i].Loads) for every iteration and
	// tails the Tail of each merged schedule. A trace is immutable once
	// built but replayed once per (policy, resource-point) pair of a sweep,
	// so re-deriving either per run is pure waste. Built lazily on first
	// use, safe for concurrent replays via mergeOnce.
	merged    [][]Event
	tails     []*Tail
	mergeOnce sync.Once
}

// MergedLoads returns the merged single-core execution schedule of
// iteration i — Merge(tr.Iterations[i].Loads), computed once per trace and
// shared by every subsequent replay. Callers must not mutate the returned
// slice. The trace must not be modified after the first call.
func (tr *Trace) MergedLoads(i int) []Event {
	tr.merge()
	return tr.merged[i]
}

// MergedTail returns the Tail summary of MergedLoads(i), built with it, or
// nil when the iteration has no closed form (a kernel listed twice with
// different software gaps). Callers must not mutate it.
func (tr *Trace) MergedTail(i int) *Tail {
	tr.merge()
	return tr.tails[i]
}

func (tr *Trace) merge() {
	tr.mergeOnce.Do(func() {
		tr.merged = make([][]Event, len(tr.Iterations))
		tr.tails = make([]*Tail, len(tr.Iterations))
		for j := range tr.Iterations {
			tr.merged[j] = Merge(tr.Iterations[j].Loads)
			tr.tails[j] = newTail(tr.merged[j])
		}
	})
}

// Tail summarises a merged schedule for replaying any suffix of it in
// closed form: once every kernel left in the suffix runs at a fixed
// latency, the suffix's timing follows from per-kernel counts alone. The
// kernels are indexed in order of first appearance in the schedule.
type Tail struct {
	// Count[k] is the number of executions of kernel k.
	Count []int64
	// Gap[k] is the software time preceding each execution of kernel k.
	Gap []arch.Cycles
	// After[k*K+j] is the number of executions of kernel j that follow the
	// last execution of kernel k (K = len(Count)).
	After []int64
}

// newTail builds the Tail of a merged schedule, or returns nil if some
// kernel's executions carry different gaps.
func newTail(events []Event) *Tail {
	idx := make(map[ise.KernelID]int)
	var last []int
	t := &Tail{}
	for p, ev := range events {
		k, ok := idx[ev.Kernel]
		if !ok {
			k = len(t.Count)
			idx[ev.Kernel] = k
			t.Count = append(t.Count, 0)
			t.Gap = append(t.Gap, ev.Gap)
			last = append(last, 0)
		} else if t.Gap[k] != ev.Gap {
			return nil
		}
		t.Count[k]++
		last[k] = p
	}
	n := len(t.Count)
	t.After = make([]int64, n*n)
	// One backward pass: after[j] counts kernel j's executions behind the
	// cursor, so at a kernel's last position it is that kernel's row.
	after := make([]int64, n)
	for p := len(events) - 1; p >= 0; p-- {
		k := idx[events[p].Kernel]
		if last[k] == p {
			copy(t.After[k*n:(k+1)*n], after)
		}
		after[k]++
	}
	return t
}

// Validate checks the trace against an application.
func (tr *Trace) Validate(app *ise.Application) error {
	for i := range tr.Iterations {
		it := &tr.Iterations[i]
		blk := app.Block(it.Block)
		if blk == nil {
			return fmt.Errorf("trace: iteration %d references unknown block %q", i, it.Block)
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

// Event is one kernel execution slot in the merged single-core schedule of
// a block iteration.
type Event struct {
	Kernel ise.KernelID
	// Gap is the software time preceding this execution.
	Gap arch.Cycles
}

// Merge interleaves the kernel loads of an iteration into the single-core
// execution order. Executions of different kernels are merged by fractional
// position ((j+0.5)/E), modelling the loop structure of real functional
// blocks where kernels alternate per macroblock; ties break by kernel ID so
// the schedule is deterministic.
func Merge(loads []KernelLoad) []Event {
	m := newMerger(loads)
	events := make([]Event, 0, m.left)
	for m.left > 0 {
		l := &loads[m.next()]
		events = append(events, Event{Kernel: l.Kernel, Gap: l.GapSW})
	}
	return events
}

// merger walks the merged schedule of a set of loads (see Merge) one
// execution at a time.
type merger struct {
	curs []mergeCursor // loads with executions, sorted by kernel ID
	left int64         // executions not yet walked
}

type mergeCursor struct {
	load int     // position in the loads slice
	e    int64   // the load's execution count
	next int64   // executions walked so far
	pos  float64 // fractional position of the next execution
}

func newMerger(loads []KernelLoad) merger {
	m := merger{curs: make([]mergeCursor, 0, len(loads))}
	for i, l := range loads {
		if l.E <= 0 {
			continue
		}
		m.left += l.E
		m.curs = append(m.curs, mergeCursor{load: i, e: l.E, pos: 0.5 / float64(l.E)})
	}
	sort.Slice(m.curs, func(i, j int) bool { return loads[m.curs[i].load].Kernel < loads[m.curs[j].load].Kernel })
	return m
}

// next returns the position in loads of the next execution's load; it
// must be called only while m.left > 0. The earliest fractional position
// wins, the first cursor in kernel order on a tie. An exhausted cursor's
// position is +Inf, so it never wins while another has executions left.
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
	return c.load
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
	type track struct {
		k       *ise.Kernel
		first   arch.Cycles
		lastEnd arch.Cycles
		gaps    arch.Cycles
		n       int64
	}
	// tracks[owner[i]] accumulates the executions of it.Loads[i]'s kernel;
	// a kernel listed more than once shares its first listing's track.
	tracks := make([]track, len(it.Loads))
	owner := make([]int, len(it.Loads))
	for i, l := range it.Loads {
		owner[i] = i
		for j := 0; j < i; j++ {
			if it.Loads[j].Kernel == l.Kernel {
				owner[i] = owner[j]
				break
			}
		}
	}
	t := it.Prologue
	for m := newMerger(it.Loads); m.left > 0; {
		i := m.next()
		l := &it.Loads[i]
		t += l.GapSW
		tr := &tracks[owner[i]]
		if tr.n == 0 {
			if tr.k = blk.Kernel(l.Kernel); tr.k == nil {
				return nil, fmt.Errorf("trace: unknown kernel %q in block %q", l.Kernel, it.Block)
			}
			tr.first = t
		} else {
			tr.gaps += t - tr.lastEnd
		}
		tr.n++
		t += tr.k.RISCLatency
		tr.lastEnd = t
	}
	out := make([]ise.Trigger, 0, len(it.Loads))
	for i, l := range it.Loads {
		tr := &tracks[owner[i]]
		if tr.n == 0 {
			continue
		}
		var tb arch.Cycles
		if tr.n > 1 {
			tb = tr.gaps / arch.Cycles(tr.n-1)
		}
		out = append(out, ise.Trigger{Kernel: l.Kernel, E: tr.n, TF: tr.first, TB: tb})
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
