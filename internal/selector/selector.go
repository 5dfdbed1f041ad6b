// Package selector implements the ISE selection algorithms of the mRTS
// paper: the greedy run-time heuristic of Fig. 6 (the paper's core
// contribution, O(N*M)), the optimal run-time algorithm (exhaustive
// enumeration with branch-and-bound pruning, O(M^N), used only as a quality
// yardstick, Fig. 9), and a multi-choice two-dimensional knapsack solver
// used by the offline baselines.
package selector

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/profit"
)

// Choice is one selected ISE for one kernel.
type Choice struct {
	Kernel ise.KernelID
	ISE    *ise.ISE
	// Profit is the expected profit (cycles saved) the selector computed
	// when it picked this ISE.
	Profit float64
}

// Result is the outcome of one selection run.
type Result struct {
	// Selected lists the chosen ISEs in selection order (the order the
	// greedy algorithm granted resources; priority order).
	Selected []Choice
	// Evaluations counts profit-function evaluations: the dominant cost
	// of the run-time system (paper Section 5.4).
	Evaluations int
	// FirstRoundEvaluations counts the evaluations of the first selection
	// round. Only this share of the overhead is visible on the critical
	// path: once the first ISE is selected its reconfiguration starts and
	// the remaining selection runs in parallel (paper Section 5.4).
	FirstRoundEvaluations int
	// Rounds counts selection rounds (iterations of the Fig. 6 loop or
	// explored nodes for the optimal algorithm).
	Rounds int
	// SavedEvaluations counts the evaluations the incremental greedy
	// served from its per-candidate profit memo instead of recomputing.
	// Saved evaluations are still included in Evaluations: the modelled
	// run-time overhead (paper Section 5.4) charges the full Fig. 6
	// evaluation count either way, the memo only removes host-side work.
	SavedEvaluations int
	// CoveredPicks counts ISEs selected directly by Fig. 6 Step 2b
	// because all their data paths were already covered by previously
	// selected ISEs. Covered picks need no profit evaluation and are not
	// counted in Evaluations or FirstRoundEvaluations.
	CoveredPicks int
}

// ByKernel returns the selected ISE for the kernel, or nil.
func (r Result) ByKernel(id ise.KernelID) *ise.ISE {
	for _, c := range r.Selected {
		if c.Kernel == id {
			return c.ISE
		}
	}
	return nil
}

// TotalProfit sums the per-choice profits.
func (r Result) TotalProfit() float64 {
	t := 0.0
	for _, c := range r.Selected {
		t += c.Profit
	}
	return t
}

// Request bundles the inputs of one selection: the functional block, the
// trigger forecasts, the fabric view and the profit model.
type Request struct {
	Block    *ise.FunctionalBlock
	Triggers []ise.Trigger
	Fabric   ise.FabricView
	Model    profit.Model
}

// Validate checks that every trigger references a kernel of the block.
func (q Request) Validate() error {
	if q.Block == nil {
		return fmt.Errorf("selector: nil functional block")
	}
	for _, t := range q.Triggers {
		if err := t.Validate(); err != nil {
			return err
		}
		if q.Block.Kernel(t.Kernel) == nil {
			return fmt.Errorf("selector: trigger references kernel %q not in block %q", t.Kernel, q.Block.ID)
		}
	}
	return nil
}

// candidate is one ISE under consideration together with its trigger and
// the block-table numbers of its data paths.
type candidate struct {
	kernel *ise.Kernel
	e      *ise.ISE
	paths  []int
	params profit.Params
}

// numCandidates counts the candidates appendCandidates would produce, so
// candidate buffers can be sized in one allocation (or none, when pooled).
func numCandidates(q Request) int {
	n := 0
	for _, t := range q.Triggers {
		if k := q.Block.Kernel(t.Kernel); k != nil {
			n += len(k.ISEs)
		}
	}
	return n
}

// appendCandidates appends the initial candidate list (Fig. 6 Step 1) in a
// deterministic order: triggers in given order, ISEs in kernel order.
func appendCandidates(dst []gcand, q Request, t *blockTable) []gcand {
	if n := len(dst) + numCandidates(q); cap(dst) < n {
		dst = append(make([]gcand, 0, n), dst...)
	}
	for _, tr := range q.Triggers {
		ki := kernelIndex(q.Block, tr.Kernel)
		if ki < 0 {
			continue
		}
		k := q.Block.Kernels[ki]
		p := profit.ParamsFromTrigger(tr)
		for j, e := range k.ISEs {
			dst = append(dst, gcand{candidate: candidate{kernel: k, e: e, paths: t.paths[ki][j], params: p}})
		}
	}
	return dst
}

// state tracks remaining fabric capacity and the data paths that will be
// available once the selection's reconfigurations complete.
//
// Two distinct notions matter (paper Section 4.1):
//
//   - capacity: every data path of a selected ISE occupies fabric, whether
//     or not it happens to be configured already — data paths are only
//     shared (counted once) between ISEs of the *same selection*;
//   - reconfiguration time: a data path that is already on the fabric (left
//     over from the previous selection, or claimed by an earlier choice of
//     this selection) costs no reconfiguration time. The profit function
//     sees that through the configured mask (mask) and the port backlog
//     (PortBacklog) this state supplies.
//
// Data paths are identified by their block-table numbers.
type state struct {
	freePRC int
	freeCG  int
	// conf holds the data paths configured on the base fabric, snapshot
	// when the selection starts; claimed those claimed so far.
	conf    bitset
	claimed bitset
	// claimLog lists the claimed data paths in claim order; Optimal's
	// backtracking restores claimed by undoing the log to a mark.
	claimLog []int
	// baseFG/baseCG are the base fabric's port backlogs; pendingFG and
	// pendingCG accumulate the reconfiguration time of data paths claimed
	// by earlier choices of this selection: later candidates queue behind
	// them on the serial configuration ports.
	baseFG, baseCG       arch.Cycles
	pendingFG, pendingCG arch.Cycles
}

var _ ise.PortView = (*state)(nil)

// reset re-initialises the state onto a new base view of the block,
// reusing its buffers so pooled states allocate nothing on reuse.
func (s *state) reset(base ise.FabricView, t *blockTable) {
	s.freePRC = base.FreePRC()
	s.freeCG = base.FreeCG()
	s.conf = t.snapshot(s.conf, base)
	s.claimed = s.claimed.reset(len(t.ids))
	s.claimLog = s.claimLog[:0]
	s.baseFG, s.baseCG = 0, 0
	if pv, ok := base.(ise.PortView); ok {
		s.baseFG, s.baseCG = pv.PortBacklog(arch.FG), pv.PortBacklog(arch.CG)
	}
	s.pendingFG = 0
	s.pendingCG = 0
}

// PortBacklog implements ise.PortView: the physical port backlog plus the
// reconfigurations this selection has already queued.
func (s *state) PortBacklog(kind arch.FabricKind) arch.Cycles {
	if kind == arch.FG {
		return s.baseFG + s.pendingFG
	}
	return s.baseCG + s.pendingCG
}

// available reports whether data path n costs no reconfiguration time:
// physically configured or claimed by an earlier choice.
func (s *state) available(n int) bool { return s.conf.has(n) || s.claimed.has(n) }

// mask is the candidate's configured mask for the profit function.
func (s *state) mask(c *candidate) uint64 {
	var m uint64
	for i, n := range c.paths {
		if s.available(n) {
			m |= 1 << i
		}
	}
	return m
}

// profit evaluates the candidate in the current selection context.
func (s *state) profit(ps *profit.Scratch, c *candidate, m profit.Model) float64 {
	return ps.Profit(c.kernel, c.e, s.mask(c), s, c.params, m)
}

// capacityCost returns the fabric the candidate occupies beyond the data
// paths already claimed by this selection.
func (s *state) capacityCost(c *candidate) (prc, cg int) {
	for i, n := range c.paths {
		if s.claimed.has(n) {
			continue
		}
		prc += c.e.DataPaths[i].PRCs
		cg += c.e.DataPaths[i].CGs
	}
	return prc, cg
}

// fits reports whether the candidate's capacity cost fits the remaining
// fabric.
func (s *state) fits(c *candidate) bool {
	prc, cg := s.capacityCost(c)
	return prc <= s.freePRC && cg <= s.freeCG
}

// covered reports whether every data path of the candidate is already
// claimed by the selected ISEs (Fig. 6 Step 2b).
func (s *state) covered(c *candidate) bool {
	prc, cg := s.capacityCost(c)
	return prc == 0 && cg == 0
}

// claim consumes fabric capacity for the candidate's unclaimed data paths,
// marks all of its data paths as claimed for later candidates, and queues
// the reconfiguration time of genuinely new data paths on the ports. It
// only appends to the claim log, so undo(mark) with the log's length
// before the call undoes the marks.
func (s *state) claim(c *candidate) {
	prc, cg := s.capacityCost(c)
	s.freePRC -= prc
	s.freeCG -= cg
	for i, n := range c.paths {
		if s.claimed.has(n) {
			continue
		}
		if d := c.e.DataPaths[i]; !s.conf.has(n) {
			if d.Kind == arch.FG {
				s.pendingFG += d.ReconfigCycles()
			} else {
				s.pendingCG += d.ReconfigCycles()
			}
		}
		s.claimed.set(n)
		s.claimLog = append(s.claimLog, n)
	}
}

// undo unclaims the data paths claimed after the claim log held mark
// entries.
func (s *state) undo(mark int) {
	for _, n := range s.claimLog[mark:] {
		s.claimed.unset(n)
	}
	s.claimLog = s.claimLog[:mark]
}
