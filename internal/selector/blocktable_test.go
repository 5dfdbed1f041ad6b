package selector

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/profit"
)

// randomBlock builds a block of nk kernels whose ISEs draw their data paths
// from a pool of np paths, so kernels share data paths.
func randomBlock(rng *rand.Rand, name string, nk, maxISEs, maxPaths, np int) *ise.FunctionalBlock {
	pool := make([]ise.DataPath, np)
	for i := range pool {
		if rng.IntN(2) == 0 {
			pool[i] = ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("%s.fg%d", name, i)), Kind: arch.FG, PRCs: 1 + rng.IntN(2)}
		} else {
			pool[i] = ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("%s.cg%d", name, i)), Kind: arch.CG, CGs: 1 + rng.IntN(2)}
		}
	}
	b := &ise.FunctionalBlock{ID: name}
	for k := 0; k < nk; k++ {
		kid := ise.KernelID(fmt.Sprintf("%s.k%d", name, k))
		risc := arch.Cycles(400 + rng.IntN(600))
		kern := &ise.Kernel{ID: kid, RISCLatency: risc}
		for j, n := 0, 1+rng.IntN(maxISEs); j < n; j++ {
			e := &ise.ISE{ID: fmt.Sprintf("%s.e%d", kid, j), Kernel: kid}
			lat := risc
			for _, pi := range rng.Perm(np)[:1+rng.IntN(maxPaths)] {
				e.DataPaths = append(e.DataPaths, pool[pi])
				lat -= arch.Cycles(1 + rng.IntN(int(lat)/3))
				e.Latencies = append(e.Latencies, lat)
			}
			kern.ISEs = append(kern.ISEs, e)
		}
		b.Kernels = append(b.Kernels, kern)
	}
	if err := b.Validate(); err != nil {
		panic(err)
	}
	return b
}

// randomRequest triggers a random subset of at most maxK of the block's
// kernels on a random warm fabric.
func randomRequest(rng *rand.Rand, b *ise.FunctionalBlock, maxK int) Request {
	var trigs []ise.Trigger
	for _, i := range rng.Perm(len(b.Kernels))[:1+rng.IntN(min(maxK, len(b.Kernels)))] {
		trigs = append(trigs, ise.Trigger{Kernel: b.Kernels[i].ID, E: rng.Int64N(3000), TF: arch.Cycles(rng.Int64N(20000)), TB: arch.Cycles(rng.Int64N(400))})
	}
	conf := map[ise.DataPathID]bool{}
	for _, k := range b.Kernels {
		for _, e := range k.ISEs {
			for _, d := range e.DataPaths {
				if rng.IntN(4) == 0 {
					conf[d.ID] = true
				}
			}
		}
	}
	var fab ise.FabricView = preloadedFabric{prc: rng.IntN(8), cg: rng.IntN(8), configured: conf,
		fg: arch.Cycles(rng.Int64N(3) * 5000), cgPort: arch.Cycles(rng.Int64N(3) * 300)}
	if rng.IntN(4) == 0 {
		fab = ise.EmptyFabric{PRC: rng.IntN(8), CG: rng.IntN(8)}
	}
	return Request{Block: b, Triggers: trigs, Fabric: fab, Model: profit.Model(rng.IntN(3))}
}

// TestBlockTableMatchesReference checks block-numbered selection against
// the string-keyed reference on random blocks whose kernels share data
// paths (one block numbers more than 64 distinct paths): the selection
// state under random claim sequences, and Greedy and Optimal Results.
func TestBlockTableMatchesReference(t *testing.T) {
	const seed = 77
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewPCG(seed, seed))
	blocks := []*ise.FunctionalBlock{randomBlock(rng, "wide", 16, 5, 5, 150)}
	if n := len(blocks[0].PathIndex().IDs); n <= 64 {
		t.Fatalf("wide block numbers %d data paths, want more than 64", n)
	}
	for i := 0; i < 24; i++ {
		blocks = append(blocks, randomBlock(rng, fmt.Sprintf("b%d", i), 2+rng.IntN(4), 4, 4, 4+rng.IntN(10)))
	}

	var ps, refPS profit.Scratch
	for round := 0; round < 600; round++ {
		b := blocks[rng.IntN(len(blocks))]
		q := randomRequest(rng, b, 4)

		// The selection state under a random claim sequence.
		tbl := b.PathIndex()
		st, ref := new(state), new(refState)
		st.reset(q.Fabric, tbl)
		ref.reset(q.Fabric)
		cands := appendCandidates(nil, q, tbl)
		for _, i := range rng.Perm(len(cands)) {
			c := &cands[i].candidate
			gp, gc := st.capacityCost(c)
			wp, wc := ref.capacityCost(c.e)
			if gp != wp || gc != wc || st.fits(c) != ref.fits(c.e) || st.covered(c) != ref.covered(c.e) {
				t.Fatalf("round %d: %s: capacity (%d,%d) fits %v covered %v, reference (%d,%d) %v %v",
					round, c.e.ID, gp, gc, st.fits(c), st.covered(c), wp, wc, ref.fits(c.e), ref.covered(c.e))
			}
			if g, w := st.profit(&ps, c, q.Model), refProfit(&refPS, c.kernel, c.e, ref, c.params, q.Model); g != w {
				t.Fatalf("round %d: %s: profit %v, reference %v", round, c.e.ID, g, w)
			}
			if rng.IntN(3) == 0 {
				st.claim(c)
				ref.claim(c.e)
				if st.pendingFG != ref.pendingFG || st.pendingCG != ref.pendingCG || st.freePRC != ref.freePRC || st.freeCG != ref.freeCG {
					t.Fatalf("round %d: claim %s: state diverged from reference", round, c.e.ID)
				}
			}
		}

		g, gerr := Greedy(q)
		w, werr := referenceGreedy(q)
		g.SavedEvaluations = 0
		if !reflect.DeepEqual(g, w) || (gerr == nil) != (werr == nil) {
			t.Fatalf("round %d: Greedy = %+v, %v; reference %+v, %v", round, g, gerr, w, werr)
		}
		og, oerr := Optimal(q)
		ow, owerr := refOptimal(q)
		if !reflect.DeepEqual(og, ow) || (oerr == nil) != (owerr == nil) {
			t.Fatalf("round %d: Optimal = %+v, %v; reference %+v, %v", round, og, oerr, ow, owerr)
		}
	}
}
