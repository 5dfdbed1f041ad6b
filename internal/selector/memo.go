package selector

import (
	"container/list"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// This file implements the cross-point selection memo behind the batch
// sweep engine (internal/batch): a full resource sweep evaluates thousands
// of selections whose inputs repeat *across* neighbouring sweep points,
// where the same block reaches the same fabric state under a slightly
// different capacity budget. Memo keys are exact fingerprints of
// the selector's entire input surface, with one twist that makes adjacent
// points share entries: free capacity is clamped at the block's demand
// bound (see DemandBound), because the greedy selection provably cannot
// distinguish capacity beyond it.

// DemandBound returns an upper bound on the fabric capacity any single
// greedy selection over the block can consume: per kernel, the maximum
// over its ISEs of the summed PRC (resp. CG-EDPE) units of the ISE's data
// paths, summed over the block's kernels. The two dimensions are bounded
// independently, which only loosens the bound.
//
// Its significance is the saturation-clamp property the cross-point memo
// rests on: the greedy algorithm reads free capacity only through
// state.fits, and the profit function never reads free capacity at all
// (it sees IsConfigured and PortBacklog). If the initial free capacity of
// one dimension is at least the block's demand bound, the remaining free
// capacity in that dimension exceeds the capacity cost of every surviving
// candidate in every round — fits can never fail on that dimension — so
// the selection Result (choices, evaluation counts, rounds) is invariant
// under further capacity. Two sweep points whose free capacity differs
// only beyond the bound therefore see byte-identical selections, and the
// fingerprint may clamp free capacity to min(free, bound).
func DemandBound(b *ise.FunctionalBlock) (prc, cg int) {
	if v, ok := demandCache.Load(b); ok {
		d := v.([2]int)
		return d[0], d[1]
	}
	for _, k := range b.Kernels {
		maxPRC, maxCG := 0, 0
		for _, e := range k.ISEs {
			p, c := 0, 0
			for _, d := range e.DataPaths {
				p += d.PRCs
				c += d.CGs
			}
			if p > maxPRC {
				maxPRC = p
			}
			if c > maxCG {
				maxCG = c
			}
		}
		prc += maxPRC
		cg += maxCG
	}
	demandCache.Store(b, [2]int{prc, cg})
	return prc, cg
}

// demandCache memoizes DemandBound per block object. Blocks are immutable
// once built and live as long as their workload, so the cache never needs
// invalidation.
var demandCache sync.Map // map[*ise.FunctionalBlock][2]int

// AppendFingerprint appends a canonical encoding of the request's entire
// selection-relevant input surface to dst and returns the extended buffer:
// the block's identity (object identity, not just ID — two workloads may
// reuse block names), the profit model, the demand-clamped free capacity,
// both configuration-port backlogs, the triggers in order, and the
// configured-bit of every candidate data path (the only configured state
// the greedy selection and the profit function can observe), enumerated in
// the deterministic candidate order. Requests with equal fingerprints are
// indistinguishable to Greedy, so a memoized Result replays exactly.
func AppendFingerprint(dst []byte, q Request) []byte {
	dst = strconv.AppendUint(dst, uint64(reflect.ValueOf(q.Block).Pointer()), 16)
	dst = append(dst, '|')
	dst = append(dst, q.Block.ID...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(q.Model), 10)
	dst = append(dst, '|')
	dPRC, dCG := DemandBound(q.Block)
	dst = strconv.AppendInt(dst, int64(min(q.Fabric.FreePRC(), dPRC)), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(min(q.Fabric.FreeCG(), dCG)), 10)
	dst = append(dst, '|')
	if pv, ok := q.Fabric.(ise.PortView); ok {
		dst = strconv.AppendInt(dst, int64(pv.PortBacklog(arch.FG)), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(pv.PortBacklog(arch.CG)), 10)
	}
	for _, t := range q.Triggers {
		dst = append(dst, '|')
		dst = append(dst, string(t.Kernel)...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, t.E, 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(t.TF), 10)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(t.TB), 10)
	}
	// Configured-bits of the candidate data paths, in the deterministic
	// enumeration order of gatherCandidates. The IDs themselves are fully
	// determined by block identity and trigger order (both encoded above),
	// so positional bits suffice.
	dst = append(dst, '|')
	for _, t := range q.Triggers {
		k := q.Block.Kernel(t.Kernel)
		if k == nil {
			continue
		}
		for _, e := range k.ISEs {
			for _, d := range e.DataPaths {
				if q.Fabric.IsConfigured(d.ID) {
					dst = append(dst, '1')
				} else {
					dst = append(dst, '0')
				}
			}
		}
	}
	return dst
}

// Fingerprint is AppendFingerprint into a fresh string.
func Fingerprint(q Request) string {
	return string(AppendFingerprint(nil, q))
}

// DefaultMemoSize bounds a Memo created with NewMemo(0). A sweep touches
// a handful of blocks × a few dozen fabric states × the capacity lattice
// below each block's demand bound; 4096 entries hold all of it for the
// repo's workloads with room to spare.
const DefaultMemoSize = 4096

// MemoStats is a snapshot of a Memo's traffic.
type MemoStats struct {
	// Hits counts selections replayed from the memo (the seed hits of the
	// batch engine); Misses counts selections computed for real.
	Hits, Misses uint64
}

// Memo is a concurrency-safe, bounded LRU memo of Greedy results keyed by
// request fingerprint. It is the cross-point sharing layer of the batch
// engine: one Memo is scoped to one workload and shared by every (policy
// instance, sweep point) evaluated over it, so a selection computed at one
// lattice point seeds its neighbours. Soundness does not depend on the
// lattice walk order — keys are exact (see AppendFingerprint), so a hit
// replays precisely the Result Greedy would return — which is why batch
// output is byte-identical to sequential output under any worker count.
//
// Only use a Memo with the Greedy algorithm. Optimal's Result carries its
// branch-and-bound node count in Rounds, which feeds the modelled overhead
// and is not captured by the fingerprint.
type Memo struct {
	mu     sync.Mutex
	cap    int
	order  *list.List // front = most recent; values are *memoEntry
	byKey  map[string]*list.Element
	hits   atomic.Uint64
	misses atomic.Uint64
}

type memoEntry struct {
	key string
	res Result
}

// NewMemo creates a memo bounded to capacity entries (DefaultMemoSize if
// capacity <= 0).
func NewMemo(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultMemoSize
	}
	return &Memo{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element, capacity),
	}
}

// Greedy returns Greedy(q), serving repeated fingerprints from the memo.
// Two goroutines racing on the same uncached fingerprint may both compute
// it; the second store is idempotent (the results are identical), keeping
// the selection itself outside the lock.
func (m *Memo) Greedy(q Request) (Result, error) {
	res, _, err := m.GreedyWithHit(q)
	return res, err
}

// GreedyWithHit is Greedy plus whether the result was replayed from the
// memo, for callers that attribute hits per policy instance.
func (m *Memo) GreedyWithHit(q Request) (Result, bool, error) {
	if err := q.Validate(); err != nil {
		return Result{}, false, err
	}
	key := Fingerprint(q)
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.order.MoveToFront(el)
		res := el.Value.(*memoEntry).res
		m.mu.Unlock()
		m.hits.Add(1)
		return res, true, nil
	}
	m.mu.Unlock()
	res, err := Greedy(q)
	if err != nil {
		return Result{}, false, err
	}
	m.misses.Add(1)
	m.mu.Lock()
	if el, ok := m.byKey[key]; ok {
		m.order.MoveToFront(el)
	} else {
		m.byKey[key] = m.order.PushFront(&memoEntry{key: key, res: res})
		if m.order.Len() > m.cap {
			oldest := m.order.Back()
			m.order.Remove(oldest)
			delete(m.byKey, oldest.Value.(*memoEntry).key)
		}
	}
	m.mu.Unlock()
	return res, false, nil
}

// Stats returns the memo's traffic counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load()}
}

// Len returns the number of memoized selections.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}
