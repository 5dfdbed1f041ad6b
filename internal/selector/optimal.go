package selector

import (
	"slices"
	"sync"

	"mrts/internal/ise"
	"mrts/internal/profit"
)

// Optimal runs the optimal run-time selection algorithm the paper uses as a
// quality yardstick (Section 4.1, Fig. 9): it enumerates all combinations
// of ISEs (one or none per kernel), prunes combinations that violate the
// resource constraint, computes the profit of each feasible combination and
// returns the best. Branch-and-bound pruning keeps the enumeration
// tractable: subtrees whose optimistic bound cannot beat the incumbent are
// cut. The paper reports >78 million combinations for six H.264 kernels,
// which is why this algorithm is not used at run time.
func Optimal(q Request) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	sc := optimalPool.Get().(*optimalScratch)
	defer sc.release()
	sc.res = Result{}
	t := q.Block.PathIndex()
	st := &sc.st
	st.reset(q.Fabric, t)
	sc.countOwners(q, t)

	// Every group's options are a window of one buffer sized for all
	// candidates, so appending never moves an earlier group's window.
	if n := numCandidates(q); cap(sc.opts) < n {
		sc.opts = make([]candidate, 0, n)
	}
	opts := sc.opts[:0]
	groups := sc.groups[:0]
	for _, tr := range q.Triggers {
		ki := kernelIndex(q.Block, tr.Kernel)
		if ki < 0 {
			continue
		}
		k := q.Block.Kernels[ki]
		p := profit.ParamsFromTrigger(tr)
		g := group{kernel: k.ID}
		first := len(opts)
		for j, e := range k.ISEs {
			prc, cg := e.CostPRC(), e.CostCG()
			if prc > st.freePRC || cg > st.freeCG {
				continue // can never fit
			}
			c := candidate{kernel: k, e: e, paths: t.Paths[ki][j], params: p}
			sc.res.Evaluations++
			// Stand-alone profit: nothing is claimed yet, so the state
			// shows the base fabric.
			pr := st.profit(&sc.prof, &c, q.Model)
			shared := false
			for _, n := range c.paths {
				if sc.owners[n] > 1 {
					shared = true
					break
				}
			}
			// A zero stand-alone profit can still turn positive when
			// another kernel configures shared data paths, so only
			// unshared zero-profit options can be dropped outright.
			if pr <= 0 && !shared {
				continue
			}
			opts = append(opts, c)
			// Per-option upper bound on the profit in any context. An
			// unshared option's data paths are never configured by other
			// kernels' choices, so context can only add port backlog —
			// which delays availability and moves executions to
			// lower-improvement intermediate modes, strictly shrinking
			// profit. Its exact stand-alone profit therefore bounds it.
			// A shared option may get data paths for free from another
			// kernel, so only the steady-state profit (all transients
			// hidden) bounds it.
			b := pr
			if shared {
				b = profit.SteadyStateProfit(k, e, p.E)
			}
			if b > g.best {
				g.best = b
			}
		}
		g.opts = opts[first:len(opts):len(opts)]
		groups = append(groups, g)
	}
	sc.opts, sc.groups = opts, groups

	// Sort groups by descending best profit so bounds tighten early.
	slices.SortStableFunc(groups, func(a, b group) int {
		switch {
		case a.best > b.best:
			return -1
		case a.best < b.best:
			return 1
		}
		return 0
	})

	// suffix[i] = sum of best profits of groups i..end (appending a make
	// extends the buffer in place, without allocating).
	sc.suffix = append(sc.suffix[:0], make([]float64, len(groups)+1)...)
	for i := len(groups) - 1; i >= 0; i-- {
		sc.suffix[i] = sc.suffix[i+1] + groups[i].best
	}

	sc.bestTotal = -1
	sc.best = sc.best[:0]
	sc.current = sc.current[:0]
	sc.model = q.Model
	sc.walk(0, 0)

	res := sc.res
	if len(sc.best) > 0 {
		res.Selected = slices.Clone(sc.best)
	}
	// The exhaustive algorithm cannot overlap its search with
	// reconfiguration: everything is on the critical path.
	res.FirstRoundEvaluations = res.Evaluations
	return res, nil
}

// group holds one trigger's candidate ISEs that can fit and may profit.
type group struct {
	kernel ise.KernelID
	opts   []candidate
	best   float64 // upper bound on any option's profit in any context
}

// optimalScratch is the per-call working memory of Optimal, pooled like
// Greedy's so a warm call allocates only the Result's Selected copy.
type optimalScratch struct {
	model profit.Model
	st    state
	prof  profit.Scratch
	// owners[n] counts the triggered kernels whose ISEs use data path n;
	// lastOwner[n] is the last of them counted (kernel index + 1).
	owners    []int
	lastOwner []int
	groups    []group
	opts      []candidate
	suffix    []float64
	current   []Choice
	best      []Choice
	// bestTotal is the incumbent's profit; res accumulates the counters.
	bestTotal float64
	res       Result
}

var optimalPool = sync.Pool{New: func() any { return new(optimalScratch) }}

func (sc *optimalScratch) release() { optimalPool.Put(sc) }

// walk explores groups i.. with the incumbent and the current partial
// choice in os, total being the current choice's profit.
func (sc *optimalScratch) walk(i int, total float64) {
	sc.res.Rounds++
	if total+sc.suffix[i] <= sc.bestTotal {
		return
	}
	if i == len(sc.groups) {
		if total > sc.bestTotal {
			sc.bestTotal = total
			sc.best = append(sc.best[:0], sc.current...)
		}
		return
	}
	st := &sc.st
	g := &sc.groups[i]
	for j := range g.opts {
		o := &g.opts[j]
		if !st.fits(o) {
			continue
		}
		// Exact profit in the context of already-chosen ISEs:
		// shared data paths cost nothing a second time, and the
		// reconfigurations queued by earlier choices delay this
		// ISE on the configuration ports.
		sc.res.Evaluations++
		pr := st.profit(&sc.prof, o, sc.model)
		if pr <= 0 {
			continue
		}
		// Claim / recurse / restore.
		savedPRC, savedCG := st.freePRC, st.freeCG
		savedFG, savedCGPort := st.pendingFG, st.pendingCG
		mark := len(st.claimLog)
		st.claim(o)
		sc.current = append(sc.current, Choice{Kernel: g.kernel, ISE: o.e, Profit: pr})
		sc.walk(i+1, total+pr)
		sc.current = sc.current[:len(sc.current)-1]
		st.freePRC, st.freeCG = savedPRC, savedCG
		st.pendingFG, st.pendingCG = savedFG, savedCGPort
		st.undo(mark)
	}
	// Also consider leaving this kernel unselected (RISC mode).
	sc.walk(i+1, total)
}

// countOwners counts, per data path of the block, the distinct triggered
// kernels whose ISEs use it; a data path with more than one owner may be
// configured for free by another kernel's choice.
func (sc *optimalScratch) countOwners(q Request, t *ise.PathIndex) {
	sc.owners = append(sc.owners[:0], make([]int, len(t.IDs))...)
	sc.lastOwner = append(sc.lastOwner[:0], make([]int, len(t.IDs))...)
	for _, tr := range q.Triggers {
		ki := kernelIndex(q.Block, tr.Kernel)
		if ki < 0 {
			continue
		}
		for _, ns := range t.Paths[ki] {
			for _, n := range ns {
				if sc.lastOwner[n] != ki+1 {
					sc.lastOwner[n] = ki + 1
					sc.owners[n]++
				}
			}
		}
	}
}
