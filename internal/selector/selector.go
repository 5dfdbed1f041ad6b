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

// ISEs returns just the selected ISEs in selection order.
func (r Result) ISEs() []*ise.ISE {
	out := make([]*ise.ISE, len(r.Selected))
	for i, c := range r.Selected {
		out[i] = c.ISE
	}
	return out
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

// candidate is one ISE under consideration together with its trigger.
type candidate struct {
	kernel *ise.Kernel
	e      *ise.ISE
	params profit.Params
}

// numCandidates counts the candidates gatherCandidates would produce, so
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

// gatherCandidates builds the initial candidate list (Fig. 6 Step 1) in a
// deterministic order: triggers in given order, ISEs in kernel order.
func gatherCandidates(q Request) []candidate {
	out := make([]candidate, 0, numCandidates(q))
	for _, t := range q.Triggers {
		k := q.Block.Kernel(t.Kernel)
		if k == nil {
			continue
		}
		p := profit.ParamsFromTrigger(t)
		for _, e := range k.ISEs {
			out = append(out, candidate{kernel: k, e: e, params: p})
		}
	}
	return out
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
//     sees that through the FabricView this state implements.
type state struct {
	base    ise.FabricView
	freePRC int
	freeCG  int
	// claimed lists the data paths claimed so far, each once, in claim
	// order; a selection claims a handful, so a scan beats hashing, and
	// Optimal's backtracking restores it by truncation.
	claimed []ise.DataPathID
	// pendingFG/pendingCG accumulate the reconfiguration time of data
	// paths claimed by earlier choices of this selection: later
	// candidates queue behind them on the serial configuration ports.
	pendingFG arch.Cycles
	pendingCG arch.Cycles
}

var (
	_ ise.FabricView = (*state)(nil)
	_ ise.PortView   = (*state)(nil)
)

// reset re-initialises the state onto a new base view, reusing the claimed
// list so pooled states allocate nothing on reuse.
func (s *state) reset(base ise.FabricView) {
	s.base = base
	s.freePRC = base.FreePRC()
	s.freeCG = base.FreeCG()
	s.claimed = s.claimed[:0]
	s.pendingFG = 0
	s.pendingCG = 0
}

func (s *state) FreePRC() int { return s.freePRC }
func (s *state) FreeCG() int  { return s.freeCG }

// PortBacklog implements ise.PortView: the physical port backlog plus the
// reconfigurations this selection has already queued.
func (s *state) PortBacklog(kind arch.FabricKind) arch.Cycles {
	var base arch.Cycles
	if pv, ok := s.base.(ise.PortView); ok {
		base = pv.PortBacklog(kind)
	}
	if kind == arch.FG {
		return base + s.pendingFG
	}
	return base + s.pendingCG
}

// IsConfigured is the reconfiguration-time view used by the profit
// function: physically configured or claimed by an earlier choice.
func (s *state) IsConfigured(id ise.DataPathID) bool {
	return s.isClaimed(id) || s.base.IsConfigured(id)
}

// isClaimed reports whether an earlier choice of this selection claimed
// the data path.
func (s *state) isClaimed(id ise.DataPathID) bool {
	for _, c := range s.claimed {
		if c == id {
			return true
		}
	}
	return false
}

// capacityCost returns the fabric the ISE occupies beyond the data paths
// already claimed by this selection.
func (s *state) capacityCost(e *ise.ISE) (prc, cg int) {
	for _, d := range e.DataPaths {
		if s.isClaimed(d.ID) {
			continue
		}
		prc += d.PRCs
		cg += d.CGs
	}
	return prc, cg
}

// fits reports whether the ISE's capacity cost fits the remaining fabric.
func (s *state) fits(e *ise.ISE) bool {
	prc, cg := s.capacityCost(e)
	return prc <= s.freePRC && cg <= s.freeCG
}

// covered reports whether every data path of the ISE is already claimed by
// the selected ISEs (Fig. 6 Step 2b).
func (s *state) covered(e *ise.ISE) bool {
	prc, cg := s.capacityCost(e)
	return prc == 0 && cg == 0
}

// claim consumes fabric capacity for the ISE's unclaimed data paths, marks
// all of its data paths as claimed for later candidates, and queues the
// reconfiguration time of genuinely new data paths on the ports. It only
// appends to s.claimed, so truncating the list to its length before the
// call undoes the marks.
func (s *state) claim(e *ise.ISE) {
	prc, cg := s.capacityCost(e)
	s.freePRC -= prc
	s.freeCG -= cg
	for _, d := range e.DataPaths {
		if s.isClaimed(d.ID) {
			continue
		}
		if !s.base.IsConfigured(d.ID) {
			if d.Kind == arch.FG {
				s.pendingFG += d.ReconfigCycles()
			} else {
				s.pendingCG += d.ReconfigCycles()
			}
		}
		s.claimed = append(s.claimed, d.ID)
	}
}
