// Package ise defines the domain model of multi-grained Instruction Set
// Extensions: data paths, ISEs with their intermediate-ISE prefixes,
// kernels, functional blocks, trigger instructions and applications.
//
// Terminology follows the mRTS paper (DATE 2011, Section 4): an ISE is an
// ordered list of data paths, each mapped to the fine-grained (FG) or
// coarse-grained (CG) fabric. The prefix {dp_1..dp_i} of that list is the
// i-th *intermediate ISE*; it becomes executable as soon as its data paths
// are reconfigured, which may also happen through data paths shared with
// other ISEs.
package ise

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mrts/internal/arch"
)

// KernelID identifies a computational kernel of the application.
type KernelID string

// DataPathID identifies a data path. Data paths with equal IDs are the same
// physical configuration and are shared between the ISEs that list them.
type DataPathID string

// DataPath is one reconfigurable building block of an ISE.
type DataPath struct {
	ID   DataPathID
	Kind arch.FabricKind
	// PRCs and CGs give the number of Partially Reconfigurable
	// Containers / CG-EDPEs the data path occupies while configured.
	// Exactly one of the two is non-zero, matching Kind.
	PRCs int
	CGs  int
}

// ReconfigCycles returns the reconfiguration latency of the data path.
// FG data paths stream a partial bitstream per occupied PRC; CG data paths
// stream their contexts per occupied CG-EDPE.
func (d DataPath) ReconfigCycles() arch.Cycles {
	switch d.Kind {
	case arch.FG:
		n := d.PRCs
		if n < 1 {
			n = 1
		}
		return arch.FGReconfigCycles * arch.Cycles(n)
	default:
		n := d.CGs
		if n < 1 {
			n = 1
		}
		return arch.CGReconfigCycles * arch.Cycles(n)
	}
}

// Validate reports structural problems of the data path.
func (d DataPath) Validate() error {
	if d.ID == "" {
		return fmt.Errorf("ise: data path with empty ID")
	}
	switch d.Kind {
	case arch.FG:
		if d.PRCs <= 0 || d.CGs != 0 {
			return fmt.Errorf("ise: FG data path %q must occupy PRCs only (PRCs=%d CGs=%d)", d.ID, d.PRCs, d.CGs)
		}
	case arch.CG:
		if d.CGs <= 0 || d.PRCs != 0 {
			return fmt.Errorf("ise: CG data path %q must occupy CG-EDPEs only (PRCs=%d CGs=%d)", d.ID, d.PRCs, d.CGs)
		}
	default:
		return fmt.Errorf("ise: data path %q has invalid fabric kind %v", d.ID, d.Kind)
	}
	return nil
}

// MaxDataPaths bounds the data paths of one ISE: the profit function takes
// an ISE's configured data paths as a 64-bit mask.
const MaxDataPaths = 64

// ISE is one compile-time prepared Instruction Set Extension of a kernel.
type ISE struct {
	// ID is unique within the application.
	ID string
	// Kernel is the kernel this ISE accelerates.
	Kernel KernelID
	// DataPaths lists the constituting data paths in reconfiguration
	// order. The prefix of length i is the i-th intermediate ISE.
	DataPaths []DataPath
	// Latencies[i-1] is the kernel execution latency (in core cycles)
	// when the first i data paths are configured, for i = 1..n. The last
	// entry is the latency of the fully reconfigured ISE. Latencies are
	// non-increasing and bounded above by the kernel's RISC latency.
	Latencies []arch.Cycles
}

// NumDataPaths returns the number of data paths n of the ISE.
func (e *ISE) NumDataPaths() int { return len(e.DataPaths) }

// Latency returns the execution latency of the i-th intermediate ISE,
// i in 1..n. Latency(n) is the latency of the complete ISE.
func (e *ISE) Latency(i int) arch.Cycles { return e.Latencies[i-1] }

// FullLatency returns the execution latency with all data paths configured.
func (e *ISE) FullLatency() arch.Cycles { return e.Latencies[len(e.Latencies)-1] }

// CostPRC returns the number of PRCs the complete ISE occupies.
func (e *ISE) CostPRC() int {
	n := 0
	for _, d := range e.DataPaths {
		n += d.PRCs
	}
	return n
}

// CostCG returns the number of CG-EDPEs the complete ISE occupies.
func (e *ISE) CostCG() int {
	n := 0
	for _, d := range e.DataPaths {
		n += d.CGs
	}
	return n
}

// Grain classifies the ISE as pure-FG, pure-CG or multi-grained.
func (e *ISE) Grain() arch.Grain {
	fg, cg := false, false
	for _, d := range e.DataPaths {
		switch d.Kind {
		case arch.FG:
			fg = true
		case arch.CG:
			cg = true
		}
	}
	switch {
	case fg && cg:
		return arch.GrainMG
	case fg:
		return arch.GrainFG
	case cg:
		return arch.GrainCG
	default:
		return arch.GrainNone
	}
}

// ReconfigCycles returns the cumulative reconfiguration time of the i-th
// intermediate ISE, i.e. the time until data paths 1..i are configured when
// reconfiguration starts from scratch and proceeds in list order.
// ReconfigCycles(0) is 0.
func (e *ISE) ReconfigCycles(i int) arch.Cycles {
	var t arch.Cycles
	for j := 0; j < i; j++ {
		t += e.DataPaths[j].ReconfigCycles()
	}
	return t
}

// TotalReconfigCycles is ReconfigCycles(n) for the complete ISE.
func (e *ISE) TotalReconfigCycles() arch.Cycles { return e.ReconfigCycles(len(e.DataPaths)) }

// Fits reports whether the complete ISE fits into the given free fabric.
func (e *ISE) Fits(freePRC, freeCG int) bool {
	return e.CostPRC() <= freePRC && e.CostCG() <= freeCG
}

// Validate reports structural problems of the ISE.
func (e *ISE) Validate() error {
	if e.ID == "" {
		return fmt.Errorf("ise: ISE with empty ID")
	}
	if e.Kernel == "" {
		return fmt.Errorf("ise: ISE %q has no kernel", e.ID)
	}
	if len(e.DataPaths) == 0 {
		return fmt.Errorf("ise: ISE %q has no data paths", e.ID)
	}
	if len(e.DataPaths) > MaxDataPaths {
		return fmt.Errorf("ise: ISE %q has %d data paths, at most %d are supported", e.ID, len(e.DataPaths), MaxDataPaths)
	}
	if len(e.Latencies) != len(e.DataPaths) {
		return fmt.Errorf("ise: ISE %q has %d latencies for %d data paths",
			e.ID, len(e.Latencies), len(e.DataPaths))
	}
	seen := make(map[DataPathID]bool, len(e.DataPaths))
	for _, d := range e.DataPaths {
		if err := d.Validate(); err != nil {
			return fmt.Errorf("ise: ISE %q: %w", e.ID, err)
		}
		if seen[d.ID] {
			return fmt.Errorf("ise: ISE %q lists data path %q twice", e.ID, d.ID)
		}
		seen[d.ID] = true
	}
	for i := 1; i < len(e.Latencies); i++ {
		if e.Latencies[i] > e.Latencies[i-1] {
			return fmt.Errorf("ise: ISE %q latencies not non-increasing at index %d", e.ID, i)
		}
	}
	for i, l := range e.Latencies {
		if l <= 0 {
			return fmt.Errorf("ise: ISE %q has non-positive latency at index %d", e.ID, i)
		}
	}
	return nil
}

// MonoCGExt describes the monoCG-Extension of a kernel: the full kernel
// implemented on a single free CG-EDPE using both ALUs and register files
// (paper Section 4.2). It bridges the delay until the first accelerated
// execution because its context streams in within microseconds.
type MonoCGExt struct {
	// Latency is the kernel execution latency on the monoCG-Extension.
	// It lies between the RISC latency and the ISE latencies.
	Latency arch.Cycles
	// Instructions is the number of 80-bit CG instructions streamed into
	// the context memory to realise the extension.
	Instructions int
}

// Available reports whether the kernel has a monoCG-Extension at all.
func (m MonoCGExt) Available() bool { return m.Latency > 0 && m.Instructions > 0 }

// ReconfigCycles returns the time to stream the extension's contexts into a
// free CG-EDPE. Contexts hold arch.CGContextInstructions instructions each;
// loading one context costs arch.CGReconfigCycles plus a context switch.
func (m MonoCGExt) ReconfigCycles() arch.Cycles {
	if !m.Available() {
		return 0
	}
	contexts := (m.Instructions + arch.CGContextInstructions - 1) / arch.CGContextInstructions
	return arch.Cycles(contexts)*arch.CGReconfigCycles + arch.Cycles(contexts-1)*arch.CGContextSwitchCycles
}

// Kernel is a compute-intensive loop of the application.
type Kernel struct {
	ID   KernelID
	Name string
	// RISCLatency is the per-execution latency in RISC mode, i.e. on the
	// core processor's basic instruction set (sw_time of Eq. 1).
	RISCLatency arch.Cycles
	// MonoCG is the kernel's monoCG-Extension; zero value if none exists.
	MonoCG MonoCGExt
	// ISEs are the compile-time prepared ISE candidates.
	ISEs []*ISE
}

// Validate reports structural problems of the kernel and its ISEs.
func (k *Kernel) Validate() error {
	if k.ID == "" {
		return fmt.Errorf("ise: kernel with empty ID")
	}
	if k.RISCLatency <= 0 {
		return fmt.Errorf("ise: kernel %q has non-positive RISC latency", k.ID)
	}
	if k.MonoCG.Available() && k.MonoCG.Latency >= k.RISCLatency {
		return fmt.Errorf("ise: kernel %q monoCG-Extension (%d cycles) is not faster than RISC mode (%d cycles)",
			k.ID, k.MonoCG.Latency, k.RISCLatency)
	}
	ids := make(map[string]bool, len(k.ISEs))
	for _, e := range k.ISEs {
		if err := e.Validate(); err != nil {
			return err
		}
		if e.Kernel != k.ID {
			return fmt.Errorf("ise: ISE %q belongs to kernel %q, listed under %q", e.ID, e.Kernel, k.ID)
		}
		if ids[e.ID] {
			return fmt.Errorf("ise: kernel %q lists ISE %q twice", k.ID, e.ID)
		}
		ids[e.ID] = true
		if e.FullLatency() >= k.RISCLatency {
			return fmt.Errorf("ise: ISE %q (%d cycles) is not faster than RISC mode (%d cycles)",
				e.ID, e.FullLatency(), k.RISCLatency)
		}
	}
	return nil
}

// ISEByID returns the kernel's ISE with the given ID, or nil.
func (k *Kernel) ISEByID(id string) *ISE {
	for _, e := range k.ISEs {
		if e.ID == id {
			return e
		}
	}
	return nil
}

// FunctionalBlock groups the kernels that one trigger instruction forecasts
// jointly (paper Section 1: applications consist of functional blocks, each
// containing several kernels).
type FunctionalBlock struct {
	ID      string
	Name    string
	Kernels []*Kernel

	paths atomic.Pointer[PathIndex] // built by PathIndex on first use
}

// PathIndex numbers a functional block's distinct data paths, so a
// selection can track configured and claimed data paths in bitsets
// indexed by path number instead of comparing data-path IDs.
type PathIndex struct {
	// IDs maps a path number to its data-path ID.
	IDs []DataPathID
	// Paths[k][j] lists the path numbers of the data paths of
	// Kernels[k].ISEs[j], in the ISE's order.
	Paths [][][]int
}

// PathIndex returns the block's path numbering, building it on first use.
// It lives as long as the block, so the block's kernels must not change
// after the first call.
func (b *FunctionalBlock) PathIndex() *PathIndex {
	if x := b.paths.Load(); x != nil {
		return x
	}
	x := &PathIndex{Paths: make([][][]int, len(b.Kernels))}
	number := map[DataPathID]int{}
	for ki, k := range b.Kernels {
		x.Paths[ki] = make([][]int, len(k.ISEs))
		for j, e := range k.ISEs {
			ns := make([]int, len(e.DataPaths))
			for i, d := range e.DataPaths {
				n, ok := number[d.ID]
				if !ok {
					n = len(x.IDs)
					number[d.ID] = n
					x.IDs = append(x.IDs, d.ID)
				}
				ns[i] = n
			}
			x.Paths[ki][j] = ns
		}
	}
	if b.paths.CompareAndSwap(nil, x) {
		return x
	}
	return b.paths.Load()
}

// Kernel returns the block's kernel with the given ID, or nil.
func (b *FunctionalBlock) Kernel(id KernelID) *Kernel {
	for _, k := range b.Kernels {
		if k.ID == id {
			return k
		}
	}
	return nil
}

// Validate reports structural problems of the block.
func (b *FunctionalBlock) Validate() error {
	if b.ID == "" {
		return fmt.Errorf("ise: functional block with empty ID")
	}
	if len(b.Kernels) == 0 {
		return fmt.Errorf("ise: functional block %q has no kernels", b.ID)
	}
	seen := make(map[KernelID]bool, len(b.Kernels))
	for _, k := range b.Kernels {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("ise: block %q: %w", b.ID, err)
		}
		if seen[k.ID] {
			return fmt.Errorf("ise: block %q lists kernel %q twice", b.ID, k.ID)
		}
		seen[k.ID] = true
	}
	return nil
}

// Trigger is one entry of a trigger instruction: the 4-tuple
// {K_i, e_i, tf_i, tb_i} of paper Section 4.1.
type Trigger struct {
	// Kernel is the forecasted kernel of the functional block.
	Kernel KernelID
	// E is the expected number of executions in the upcoming block.
	E int64
	// TF is the time until the first execution.
	TF arch.Cycles
	// TB is the average time between two consecutive executions.
	TB arch.Cycles
}

// Validate reports problems with the trigger's forecast values.
func (t Trigger) Validate() error {
	if t.Kernel == "" {
		return fmt.Errorf("ise: trigger with empty kernel ID")
	}
	if t.E < 0 {
		return fmt.Errorf("ise: trigger for %q has negative execution count %d", t.Kernel, t.E)
	}
	if t.TF < 0 || t.TB < 0 {
		return fmt.Errorf("ise: trigger for %q has negative timing (tf=%d tb=%d)", t.Kernel, t.TF, t.TB)
	}
	return nil
}

// Application bundles the functional blocks of one program together with a
// kernel index.
type Application struct {
	Name   string
	Blocks []*FunctionalBlock

	kernels map[KernelID]*Kernel
}

// NewApplication builds an application and validates it.
func NewApplication(name string, blocks ...*FunctionalBlock) (*Application, error) {
	a := &Application{Name: name, Blocks: blocks, kernels: make(map[KernelID]*Kernel)}
	for _, b := range blocks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
		for _, k := range b.Kernels {
			if prev, dup := a.kernels[k.ID]; dup && prev != k {
				return nil, fmt.Errorf("ise: kernel ID %q used by two distinct kernels", k.ID)
			}
			a.kernels[k.ID] = k
		}
	}
	return a, nil
}

// Kernel returns the application kernel with the given ID, or nil.
func (a *Application) Kernel(id KernelID) *Kernel {
	return a.kernels[id]
}

// Block returns the functional block with the given ID, or nil.
func (a *Application) Block(id string) *FunctionalBlock {
	for _, b := range a.Blocks {
		if b.ID == id {
			return b
		}
	}
	return nil
}

// KernelIDs returns all kernel IDs in deterministic (sorted) order.
func (a *Application) KernelIDs() []KernelID {
	ids := make([]KernelID, 0, len(a.kernels))
	for id := range a.kernels {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// FabricView is the selector's and ECU's read-only view of the
// reconfigurable fabric: free capacity plus the set of currently configured
// data paths (for intermediate-ISE sharing).
type FabricView interface {
	// FreePRC returns the number of PRCs not occupied and not reserved.
	FreePRC() int
	// FreeCG returns the number of CG-EDPEs not occupied and not reserved.
	FreeCG() int
	// IsConfigured reports whether the data path is fully reconfigured.
	IsConfigured(DataPathID) bool
}

// PortView is optionally implemented by FabricViews that know the current
// backlog of the configuration ports: the cycles until the fine-grained
// configuration port (or the coarse-grained context streamer) finishes the
// reconfigurations already scheduled. The profit function uses it so that
// an ISE queued behind a busy port is not credited with executions it
// cannot deliver yet.
type PortView interface {
	// PortBacklog returns the remaining busy time of the fabric kind's
	// configuration port, relative to now.
	PortBacklog(kind arch.FabricKind) arch.Cycles
}

// EmptyFabric is a FabricView of a fabric with the given free capacity and
// nothing configured. It is convenient for offline selection and tests.
type EmptyFabric struct {
	PRC int
	CG  int
}

// FreePRC implements FabricView.
func (f EmptyFabric) FreePRC() int { return f.PRC }

// FreeCG implements FabricView.
func (f EmptyFabric) FreeCG() int { return f.CG }

// IsConfigured implements FabricView; nothing is configured.
func (f EmptyFabric) IsConfigured(DataPathID) bool { return false }
