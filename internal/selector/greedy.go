package selector

import (
	"sync"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/profit"
)

// gcand is a candidate plus its memoized profit. The incremental greedy
// keeps the last computed profit per candidate and only recomputes it when
// a claim actually changed the candidate's profit inputs.
type gcand struct {
	candidate
	profit float64
	valid  bool
}

// greedyScratch bundles the per-call working memory of Greedy so repeated
// selections (one per trigger instruction in the simulator's inner loop)
// allocate nothing beyond the escaping Result.
type greedyScratch struct {
	st    state
	prof  profit.Scratch
	cands []gcand
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// release returns the scratch to the pool. Kernels and ISEs referenced by
// leftover candidates belong to long-lived applications and are cheap to
// retain.
func (gs *greedyScratch) release() { greedyPool.Put(gs) }

// Greedy runs the mRTS ISE selection algorithm of paper Fig. 6:
//
//	Step 1: build a candidate list of the ISEs of all kernels in the
//	        trigger instruction.
//	Step 2: remove ISEs that (a) require more reconfigurable fabric than
//	        available, and (b) are covered by data paths that are
//	        available from the already selected ISEs (those are selected
//	        directly — they cost nothing).
//	Step 3: compute the profit of each remaining candidate and select the
//	        ISE with the maximum profit.
//	Step 4: add it to the output set, update the fabric status, and
//	        remove all other ISEs of the same kernel.
//
// The loop repeats until the candidate list is empty. Kernels whose ISEs
// never fit (or never yield positive profit) stay unselected and execute in
// RISC mode or on a monoCG-Extension. Complexity is O(N*M) profit
// evaluations for N kernels with M ISEs each — Result.Evaluations models
// that full cost, while Result.SavedEvaluations reports how many of them
// the per-candidate profit memo answered without recomputation.
func Greedy(q Request) (Result, error) { return GreedyInto(nil, q) }

// GreedyInto is Greedy building Result.Selected in sel's storage
// (overwriting it from index 0), so a caller that reuses one buffer across
// selections allocates nothing once it has grown. The Result is valid until
// the caller reuses sel.
func GreedyInto(sel []Choice, q Request) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Selected: sel[:0]}
	gs := greedyPool.Get().(*greedyScratch)
	defer gs.release()
	t := q.Block.PathIndex()
	st := &gs.st
	st.reset(q.Fabric, t)
	gs.cands = appendCandidates(gs.cands[:0], q, t)
	cands := gs.cands

	for len(cands) > 0 {
		res.Rounds++

		// Step 2a: drop non-fitting candidates. Removals never change the
		// profit inputs of the surviving candidates, so memos stay valid.
		fitting := cands[:0]
		for _, c := range cands {
			if st.fits(&c.candidate) {
				fitting = append(fitting, c)
			}
		}
		cands = fitting
		if len(cands) == 0 {
			break
		}

		// Step 2b: an ISE fully covered by available data paths is free;
		// select the fastest covered ISE per kernel outright, without a
		// profit evaluation (its profit is still computed for the report,
		// but does not count toward the modelled selection overhead).
		if ci := coveredIndex(cands, st); ci >= 0 {
			picked := cands[ci].candidate
			fg0, cg0 := st.pendingFG, st.pendingCG
			st.claim(&picked)
			p := st.profit(&gs.prof, &picked, q.Model)
			res.CoveredPicks++
			res.Selected = append(res.Selected, Choice{
				Kernel: picked.kernel.ID,
				ISE:    picked.e,
				Profit: p,
			})
			cands = removeKernel(cands, picked.kernel.ID)
			invalidateStale(cands, st, &picked, q.Model,
				st.pendingFG != fg0, st.pendingCG != cg0)
			continue
		}

		// Step 3: profit of each candidate; keep the maximum. Candidates
		// whose inputs did not change since their last evaluation reuse
		// the memoized profit.
		firstRound := res.Rounds == 1
		best := -1
		bestProfit := 0.0
		for i := range cands {
			c := &cands[i]
			if !c.valid {
				c.profit = st.profit(&gs.prof, &c.candidate, q.Model)
				c.valid = true
			} else {
				res.SavedEvaluations++
			}
			res.Evaluations++
			if firstRound {
				res.FirstRoundEvaluations++
			}
			p := c.profit
			if p <= 0 {
				continue
			}
			if best < 0 || p > bestProfit || (p == bestProfit && c.e.ID < cands[best].e.ID) {
				best, bestProfit = i, p
			}
		}
		if best < 0 {
			break // no candidate improves performance
		}

		// Step 4: select, update fabric, drop the kernel's other ISEs and
		// re-mark only the candidates the claim actually affected.
		chosen := cands[best].candidate
		fg0, cg0 := st.pendingFG, st.pendingCG
		st.claim(&chosen)
		res.Selected = append(res.Selected, Choice{
			Kernel: chosen.kernel.ID,
			ISE:    chosen.e,
			Profit: bestProfit,
		})
		cands = removeKernel(cands, chosen.kernel.ID)
		invalidateStale(cands, st, &chosen, q.Model,
			st.pendingFG != fg0, st.pendingCG != cg0)
	}
	return res, nil
}

// coveredIndex finds the covered candidate with the lowest full latency
// (ties broken by ISE ID); it returns -1 if no candidate is covered.
func coveredIndex(cands []gcand, st *state) int {
	best := -1
	for i := range cands {
		c := &cands[i]
		if !st.covered(&c.candidate) {
			continue
		}
		if best < 0 ||
			c.e.FullLatency() < cands[best].e.FullLatency() ||
			(c.e.FullLatency() == cands[best].e.FullLatency() && c.e.ID < cands[best].e.ID) {
			best = i
		}
	}
	return best
}

// removeKernel compacts the candidate list in place, dropping every ISE of
// the given kernel (Fig. 6 Step 4).
func removeKernel(cands []gcand, id ise.KernelID) []gcand {
	next := cands[:0]
	for _, c := range cands {
		if c.kernel.ID != id {
			next = append(next, c)
		}
	}
	return next
}

// invalidateStale marks the candidates whose memoized profit the claim of
// picked made stale. Profit reads the selection state only through
// IsConfigured (for the candidate's own data paths) and PortBacklog (only
// for ports the candidate still has unconfigured work on), so a candidate's
// profit changed iff it shares a data path with the picked ISE, or a port
// backlog grew and the candidate queues unconfigured data paths on that
// port. PortBlind profits never read backlogs, and FGTuned charges every
// data path to the fine-grained port.
func invalidateStale(cands []gcand, st *state, picked *candidate, m profit.Model, fgChanged, cgChanged bool) {
	portAware := m != profit.PortBlind && (fgChanged || cgChanged)
	for i := range cands {
		c := &cands[i]
		if !c.valid {
			continue
		}
		if sharesDataPath(c.paths, picked.paths) ||
			(portAware && portSensitive(&c.candidate, st, m, fgChanged, cgChanged)) {
			c.valid = false
		}
	}
}

func sharesDataPath(a, b []int) bool {
	for _, na := range a {
		for _, nb := range b {
			if na == nb {
				return true
			}
		}
	}
	return false
}

// portSensitive reports whether the ISE's profit depends on a changed port
// backlog: it has at least one not-yet-configured data path whose effective
// fabric kind reconfigures through that port.
func portSensitive(c *candidate, st *state, m profit.Model, fgChanged, cgChanged bool) bool {
	for i, n := range c.paths {
		if st.available(n) {
			continue
		}
		kind := c.e.DataPaths[i].Kind
		if m == profit.FGTuned {
			kind = arch.FG
		}
		if kind == arch.FG {
			if fgChanged {
				return true
			}
		} else if cgChanged {
			return true
		}
	}
	return false
}
