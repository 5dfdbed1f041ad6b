package selector

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mrts/internal/ise"
	"mrts/internal/profit"
)

func TestDemandBound(t *testing.T) {
	blk := twoKernelBlock()
	prc, cg := DemandBound(blk)
	// big: max PRC over ISEs = 1 (big.fg1), max CG = 2 (big.cg2);
	// small: max PRC = 1, max CG = 1.
	if prc != 2 || cg != 3 {
		t.Fatalf("DemandBound = (%d,%d), want (2,3)", prc, cg)
	}
	// Cached second call agrees.
	prc2, cg2 := DemandBound(blk)
	if prc2 != prc || cg2 != cg {
		t.Fatalf("cached DemandBound = (%d,%d), want (%d,%d)", prc2, cg2, prc, cg)
	}
}

// TestSaturationClamp pins the theorem the cross-point memo rests on: once
// free capacity reaches the block's demand bound, growing it further can
// not change any part of the greedy Result, and the clamped fingerprints
// collapse to one key.
func TestSaturationClamp(t *testing.T) {
	blk := twoKernelBlock()
	dPRC, dCG := DemandBound(blk)
	for _, model := range []profit.Model{profit.Multigrained, profit.FGTuned, profit.PortBlind} {
		base, err := Greedy(Request{
			Block: blk, Triggers: triggers(),
			Fabric: ise.EmptyFabric{PRC: dPRC, CG: dCG}, Model: model,
		})
		if err != nil {
			t.Fatal(err)
		}
		baseFP := Fingerprint(Request{
			Block: blk, Triggers: triggers(),
			Fabric: ise.EmptyFabric{PRC: dPRC, CG: dCG}, Model: model,
		})
		for _, extra := range []int{1, 3, 17, 1000} {
			q := Request{
				Block: blk, Triggers: triggers(),
				Fabric: ise.EmptyFabric{PRC: dPRC + extra, CG: dCG + extra}, Model: model,
			}
			res, err := Greedy(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("model %v: Result at demand+%d differs from result at the demand bound:\n%+v\nvs\n%+v",
					model, extra, res, base)
			}
			if fp := Fingerprint(q); fp != baseFP {
				t.Fatalf("model %v: fingerprint at demand+%d did not clamp:\n%q\nvs\n%q", model, extra, fp, baseFP)
			}
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	blk := twoKernelBlock()
	mk := func(prc, cg int, model profit.Model, trigs []ise.Trigger) string {
		return Fingerprint(Request{Block: blk, Triggers: trigs, Fabric: ise.EmptyFabric{PRC: prc, CG: cg}, Model: model})
	}
	base := mk(1, 1, profit.Multigrained, triggers())
	if got := mk(2, 1, profit.Multigrained, triggers()); got == base {
		t.Fatal("fingerprint ignores sub-bound free PRC")
	}
	if got := mk(1, 2, profit.Multigrained, triggers()); got == base {
		t.Fatal("fingerprint ignores sub-bound free CG")
	}
	if got := mk(1, 1, profit.FGTuned, triggers()); got == base {
		t.Fatal("fingerprint ignores the profit model")
	}
	bumped := triggers()
	bumped[0].E++
	if got := mk(1, 1, profit.Multigrained, bumped); got == base {
		t.Fatal("fingerprint ignores trigger forecasts")
	}
	// A configured candidate data path must split the key.
	conf := Fingerprint(Request{
		Block: blk, Triggers: triggers(), Model: profit.Multigrained,
		Fabric: coveredFabric{prc: 1, cg: 1, configured: map[ise.DataPathID]bool{"b1": true}},
	})
	if conf == base {
		t.Fatal("fingerprint ignores configured data paths")
	}
	// Distinct block objects with identical shape must not collide: memo
	// scope is the block identity, not its name.
	other := twoKernelBlock()
	if got := Fingerprint(Request{Block: other, Triggers: triggers(), Fabric: ise.EmptyFabric{PRC: 1, CG: 1}, Model: profit.Multigrained}); got == base {
		t.Fatal("fingerprint collides across distinct block objects")
	}
}

// latticeRequests builds a capacity lattice of requests, the shape a sweep
// produces, including points far beyond the demand bound (which the clamp
// folds together).
func latticeRequests(blk *ise.FunctionalBlock) []Request {
	var qs []Request
	for prc := 0; prc <= 6; prc++ {
		for cg := 0; cg <= 6; cg++ {
			for _, model := range []profit.Model{profit.Multigrained, profit.FGTuned} {
				qs = append(qs, Request{
					Block: blk, Triggers: triggers(),
					Fabric: ise.EmptyFabric{PRC: prc, CG: cg}, Model: model,
				})
			}
		}
	}
	return qs
}

// TestMemoConcurrentMatchesGreedy shares one memo between goroutines
// walking the lattice at staggered offsets, so hits and misses race on the
// same fingerprints: every result must equal a direct Greedy call.
func TestMemoConcurrentMatchesGreedy(t *testing.T) {
	blk := twoKernelBlock()
	qs := latticeRequests(blk)
	want := make([]Result, len(qs))
	for i, q := range qs {
		var err error
		want[i], err = Greedy(q)
		if err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	memo := NewMemo(0)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := range qs {
				i := (n + w*len(qs)/workers) % len(qs)
				got, err := memo.Greedy(qs[i])
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("worker %d: memo result for request %d differs from Greedy", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := memo.Stats()
	if st.Hits == 0 {
		t.Fatalf("expected clamp-induced memo hits on the lattice, got none (misses=%d)", st.Misses)
	}
	if st.Hits+st.Misses != uint64(workers*len(qs)) {
		t.Fatalf("hits+misses = %d, want %d lookups", st.Hits+st.Misses, workers*len(qs))
	}
}

func TestMemoBoundAndLRU(t *testing.T) {
	blk := twoKernelBlock()
	memo := NewMemo(2)
	mk := func(prc int) Request {
		return Request{Block: blk, Triggers: triggers(), Fabric: ise.EmptyFabric{PRC: prc, CG: 0}, Model: profit.Multigrained}
	}
	for _, prc := range []int{0, 1, 2} { // three distinct sub-bound keys
		if _, err := memo.Greedy(mk(prc)); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Len() != 2 {
		t.Fatalf("memo holds %d entries, want 2 (bounded)", memo.Len())
	}
	// The oldest key (prc=0) was evicted; re-requesting it is a miss.
	before := memo.Stats().Misses
	if _, err := memo.Greedy(mk(0)); err != nil {
		t.Fatal(err)
	}
	if memo.Stats().Misses != before+1 {
		t.Fatal("evicted entry was served as a hit")
	}
}
