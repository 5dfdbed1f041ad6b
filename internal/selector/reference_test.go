package selector

import (
	"slices"
	"sync"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/profit"
)

// This file keeps the string-keyed selection state and Optimal that
// preceded block-numbered data paths, unchanged but for
// their names and the profit call, as the reference the block-table
// oracle (TestBlockTableMatchesReference) and the brute-force and
// non-incremental greedy checks compare against.

// refProfit evaluates a profit on a FabricView, the way the profit
// function read fabric state before it took configured masks.
func refProfit(ps *profit.Scratch, k *ise.Kernel, e *ise.ISE, fab ise.FabricView, p profit.Params, m profit.Model) float64 {
	return ps.Profit(k, e, profit.ConfiguredMask(e, fab), profit.PortsOf(fab), p, m)
}

// refCand is one ISE under consideration together with its trigger.
type refCand struct {
	kernel *ise.Kernel
	e      *ise.ISE
	params profit.Params
}

// refNumCandidates counts the candidates refGatherCandidates would produce, so
// refCand buffers can be sized in one allocation (or none, when pooled).
func refNumCandidates(q Request) int {
	n := 0
	for _, t := range q.Triggers {
		if k := q.Block.Kernel(t.Kernel); k != nil {
			n += len(k.ISEs)
		}
	}
	return n
}

// refGatherCandidates builds the initial refCand list (Fig. 6 Step 1) in a
// deterministic order: triggers in given order, ISEs in kernel order.
func refGatherCandidates(q Request) []refCand {
	out := make([]refCand, 0, refNumCandidates(q))
	for _, t := range q.Triggers {
		k := q.Block.Kernel(t.Kernel)
		if k == nil {
			continue
		}
		p := profit.ParamsFromTrigger(t)
		for _, e := range k.ISEs {
			out = append(out, refCand{kernel: k, e: e, params: p})
		}
	}
	return out
}

// refState tracks remaining fabric capacity and the data paths that will be
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
//     sees that through the FabricView this refState implements.
type refState struct {
	base    ise.FabricView
	freePRC int
	freeCG  int
	// claimed lists the data paths claimed so far, each once, in claim
	// order; a selection claims a handful, so a scan beats hashing, and
	// refOptimal's backtracking restores it by truncation.
	claimed []ise.DataPathID
	// pendingFG/pendingCG accumulate the reconfiguration time of data
	// paths claimed by earlier choices of this selection: later
	// candidates queue behind them on the serial configuration ports.
	pendingFG arch.Cycles
	pendingCG arch.Cycles
}

var (
	_ ise.FabricView = (*refState)(nil)
	_ ise.PortView   = (*refState)(nil)
)

// reset re-initialises the refState onto a new base view, reusing the claimed
// list so pooled states allocate nothing on reuse.
func (s *refState) reset(base ise.FabricView) {
	s.base = base
	s.freePRC = base.FreePRC()
	s.freeCG = base.FreeCG()
	s.claimed = s.claimed[:0]
	s.pendingFG = 0
	s.pendingCG = 0
}

func (s *refState) FreePRC() int { return s.freePRC }
func (s *refState) FreeCG() int  { return s.freeCG }

// PortBacklog implements ise.PortView: the physical port backlog plus the
// reconfigurations this selection has already queued.
func (s *refState) PortBacklog(kind arch.FabricKind) arch.Cycles {
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
func (s *refState) IsConfigured(id ise.DataPathID) bool {
	return s.isClaimed(id) || s.base.IsConfigured(id)
}

// isClaimed reports whether an earlier choice of this selection claimed
// the data path.
func (s *refState) isClaimed(id ise.DataPathID) bool {
	for _, c := range s.claimed {
		if c == id {
			return true
		}
	}
	return false
}

// capacityCost returns the fabric the ISE occupies beyond the data paths
// already claimed by this selection.
func (s *refState) capacityCost(e *ise.ISE) (prc, cg int) {
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
func (s *refState) fits(e *ise.ISE) bool {
	prc, cg := s.capacityCost(e)
	return prc <= s.freePRC && cg <= s.freeCG
}

// covered reports whether every data path of the ISE is already claimed by
// the selected ISEs (Fig. 6 Step 2b).
func (s *refState) covered(e *ise.ISE) bool {
	prc, cg := s.capacityCost(e)
	return prc == 0 && cg == 0
}

// claim consumes fabric capacity for the ISE's unclaimed data paths, marks
// all of its data paths as claimed for later candidates, and queues the
// reconfiguration time of genuinely new data paths on the ports. It only
// appends to s.claimed, so truncating the list to its length before the
// call undoes the marks.
func (s *refState) claim(e *ise.ISE) {
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

// refOptimal runs the optimal run-time selection algorithm the paper uses as a
// quality yardstick (Section 4.1, Fig. 9): it enumerates all combinations
// of ISEs (one or none per kernel), prunes combinations that violate the
// resource constraint, computes the profit of each feasible combination and
// returns the best. Branch-and-bound pruning keeps the enumeration
// tractable: subtrees whose optimistic bound cannot beat the incumbent are
// cut. The paper reports >78 million combinations for six H.264 kernels,
// which is why this algorithm is not used at run time.
func refOptimal(q Request) (Result, error) {
	if err := q.Validate(); err != nil {
		return Result{}, err
	}
	sc := refOptimalPool.Get().(*refOptimalScratch)
	defer sc.release()
	sc.res = Result{}
	st := &sc.st
	st.reset(q.Fabric)

	dpOwners := refCountDataPathOwners(q)
	// Every refGroup's options are a window of one buffer sized for all
	// candidates, so appending never moves an earlier refGroup's window.
	if n := refNumCandidates(q); cap(sc.opts) < n {
		sc.opts = make([]refCand, 0, n)
	}
	opts := sc.opts[:0]
	groups := sc.groups[:0]
	for _, t := range q.Triggers {
		k := q.Block.Kernel(t.Kernel)
		if k == nil {
			continue
		}
		p := profit.ParamsFromTrigger(t)
		g := refGroup{kernel: k.ID}
		first := len(opts)
		for _, e := range k.ISEs {
			prc, cg := e.CostPRC(), e.CostCG()
			if prc > st.freePRC || cg > st.freeCG {
				continue // can never fit
			}
			sc.res.Evaluations++
			pr := refProfit(&sc.prof, k, e, q.Fabric, p, q.Model)
			shared := false
			for _, d := range e.DataPaths {
				if dpOwners[d.ID] > 1 {
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
			opts = append(opts, refCand{kernel: k, e: e, params: p})
			// Per-option upper bound on the profit in any context. An
			// unshared option's data paths are never configured by other
			// kernels' choices, so context can only add port backlog —
			// which delays availability and moves executions to
			// lower-improvement intermediate modes, strictly shrinking
			// profit. Its exact stand-alone profit therefore bounds it.
			// A shared option may get data paths for free from another
			// kernel, so only the steady-refState profit (all transients
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
	slices.SortStableFunc(groups, func(a, b refGroup) int {
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

// refGroup holds one trigger's refCand ISEs that can fit and may profit.
type refGroup struct {
	kernel ise.KernelID
	opts   []refCand
	best   float64 // upper bound on any option's profit in any context
}

// refOptimalScratch is the per-call working memory of refOptimal, pooled like
// Greedy's so a warm call allocates only the Result's Selected copy.
type refOptimalScratch struct {
	model   profit.Model
	st      refState
	prof    profit.Scratch
	groups  []refGroup
	opts    []refCand
	suffix  []float64
	current []Choice
	best    []Choice
	// bestTotal is the incumbent's profit; res accumulates the counters.
	bestTotal float64
	res       Result
}

var refOptimalPool = sync.Pool{New: func() any { return new(refOptimalScratch) }}

func (sc *refOptimalScratch) release() {
	// Drop the caller's fabric view so the pool does not pin it (see
	// greedyScratch.release).
	sc.st.base = nil
	refOptimalPool.Put(sc)
}

// walk explores groups i.. with the incumbent and the current partial
// choice in os, total being the current choice's profit.
func (sc *refOptimalScratch) walk(i int, total float64) {
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
		if !st.fits(o.e) {
			continue
		}
		// Exact profit in the context of already-chosen ISEs:
		// shared data paths cost nothing a second time, and the
		// reconfigurations queued by earlier choices delay this
		// ISE on the configuration ports.
		sc.res.Evaluations++
		pr := refProfit(&sc.prof, o.kernel, o.e, st, o.params, sc.model)
		if pr <= 0 {
			continue
		}
		// Claim / recurse / restore.
		savedPRC, savedCG := st.freePRC, st.freeCG
		savedFG, savedCGPort := st.pendingFG, st.pendingCG
		savedClaimed := len(st.claimed)
		st.claim(o.e)
		sc.current = append(sc.current, Choice{Kernel: g.kernel, ISE: o.e, Profit: pr})
		sc.walk(i+1, total+pr)
		sc.current = sc.current[:len(sc.current)-1]
		st.freePRC, st.freeCG = savedPRC, savedCG
		st.pendingFG, st.pendingCG = savedFG, savedCGPort
		st.claimed = st.claimed[:savedClaimed]
	}
	// Also consider leaving this kernel unselected (RISC mode).
	sc.walk(i+1, total)
}

// refDPOwnersCache memoizes refCountDataPathOwners across refOptimal calls: the
// ownership map depends only on the functional block and the set of
// triggered kernels, both of which repeat on every trigger of the
// simulator's inner loop. The cached maps are read-only after insertion,
// so sharing them across goroutines is safe. The cache is dropped wholesale
// when it exceeds its bound (blocks are few and long-lived in practice).
var refDPOwnersCache = struct {
	sync.Mutex
	m map[refDPOwnersKey]map[ise.DataPathID]int
}{m: make(map[refDPOwnersKey]map[ise.DataPathID]int)}

type refDPOwnersKey struct {
	block   *ise.FunctionalBlock
	kernels string
}

const refDPOwnersCacheCap = 64

// refCountDataPathOwners maps each data-path ID to the number of distinct
// kernels whose refCand ISEs reference it, memoized per (block,
// triggered-kernel sequence).
func refCountDataPathOwners(q Request) map[ise.DataPathID]int {
	// The key's kernel list is built on the stack and looked up through a
	// string conversion the compiler does not allocate for; only an
	// insert materialises it.
	var buf [128]byte
	kernels := buf[:0]
	for _, t := range q.Triggers {
		kernels = append(kernels, t.Kernel...)
		kernels = append(kernels, '|')
	}

	refDPOwnersCache.Lock()
	if m, ok := refDPOwnersCache.m[refDPOwnersKey{block: q.Block, kernels: string(kernels)}]; ok {
		refDPOwnersCache.Unlock()
		return m
	}
	refDPOwnersCache.Unlock()

	out := refComputeDataPathOwners(q)

	refDPOwnersCache.Lock()
	if len(refDPOwnersCache.m) >= refDPOwnersCacheCap {
		clear(refDPOwnersCache.m)
	}
	refDPOwnersCache.m[refDPOwnersKey{block: q.Block, kernels: string(kernels)}] = out
	refDPOwnersCache.Unlock()
	return out
}

func refComputeDataPathOwners(q Request) map[ise.DataPathID]int {
	owners := make(map[ise.DataPathID]map[ise.KernelID]bool)
	for _, t := range q.Triggers {
		k := q.Block.Kernel(t.Kernel)
		if k == nil {
			continue
		}
		for _, e := range k.ISEs {
			for _, d := range e.DataPaths {
				m := owners[d.ID]
				if m == nil {
					m = make(map[ise.KernelID]bool)
					owners[d.ID] = m
				}
				m[k.ID] = true
			}
		}
	}
	out := make(map[ise.DataPathID]int, len(owners))
	for id, m := range owners {
		out[id] = len(m)
	}
	return out
}
