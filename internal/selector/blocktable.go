package selector

import "mrts/internal/ise"

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

// snapshot sets conf's bit n when the fabric holds data path n (numbered
// by the block's PathIndex) configured, one IsConfigured call per distinct
// path.
func snapshot(t *ise.PathIndex, conf bitset, fab ise.FabricView) bitset {
	conf = conf.reset(len(t.IDs))
	for n, id := range t.IDs {
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
