package selector

import (
	"sync"

	"mrts/internal/ise"
)

// blockTable numbers a functional block's distinct data paths once, so a
// selection tracks configured and claimed data paths in bitsets indexed by
// path number instead of comparing data-path IDs.
type blockTable struct {
	// ids maps a path number to its data-path ID.
	ids []ise.DataPathID
	// paths[k][j] lists the path numbers of the data paths of
	// Kernels[k].ISEs[j], in the ISE's order.
	paths [][][]int
}

// tables caches each block's table. Blocks are immutable once built and
// live as long as their workload, so the cache never needs invalidation.
var tables sync.Map // map[*ise.FunctionalBlock]*blockTable

// tableOf returns the block's table, building it on first use.
func tableOf(b *ise.FunctionalBlock) *blockTable {
	if v, ok := tables.Load(b); ok {
		return v.(*blockTable)
	}
	t := &blockTable{paths: make([][][]int, len(b.Kernels))}
	number := map[ise.DataPathID]int{}
	for ki, k := range b.Kernels {
		t.paths[ki] = make([][]int, len(k.ISEs))
		for j, e := range k.ISEs {
			ns := make([]int, len(e.DataPaths))
			for i, d := range e.DataPaths {
				n, ok := number[d.ID]
				if !ok {
					n = len(t.ids)
					number[d.ID] = n
					t.ids = append(t.ids, d.ID)
				}
				ns[i] = n
			}
			t.paths[ki][j] = ns
		}
	}
	v, _ := tables.LoadOrStore(b, t)
	return v.(*blockTable)
}

// kernelIndex returns the position of the block's (first) kernel with the
// given ID, or -1.
func kernelIndex(b *ise.FunctionalBlock, id ise.KernelID) int {
	for i, k := range b.Kernels {
		if k.ID == id {
			return i
		}
	}
	return -1
}

// snapshot sets conf's bit n when the fabric holds data path n configured,
// one IsConfigured call per distinct path.
func (t *blockTable) snapshot(conf bitset, fab ise.FabricView) bitset {
	conf = conf.reset(len(t.ids))
	for n, id := range t.ids {
		if fab.IsConfigured(id) {
			conf.set(n)
		}
	}
	return conf
}

// bitset is a set of path numbers.
type bitset []uint64

// reset returns the set emptied and sized for n members, reusing b's
// storage.
func (b bitset) reset(n int) bitset {
	w := (n + 63) / 64
	if cap(b) < w {
		return make(bitset, w)
	}
	b = b[:w]
	clear(b)
	return b
}

func (b bitset) has(n int) bool { return b[n>>6]&(1<<(n&63)) != 0 }
func (b bitset) set(n int)      { b[n>>6] |= 1 << (n & 63) }
func (b bitset) unset(n int)    { b[n>>6] &^= 1 << (n & 63) }
