package selector

import (
	"reflect"
	"testing"

	"mrts/internal/ise"
	"mrts/internal/iselib"
	"mrts/internal/profit"
)

// poolRequests returns two requests of different shapes — A has more
// kernels, ISEs and configured data paths than B — so a scratch buffer
// that B leaves behind holds stale tails and stale claims for A.
func poolRequests() (a, b Request) {
	blkA, trigA := iselib.GenerateBlock("poolA", 5, 4, 7)
	blkB, trigB := iselib.GenerateBlock("poolB", 2, 3, 8)
	configured := map[ise.DataPathID]bool{}
	for _, e := range blkA.Kernels[0].ISEs {
		for _, d := range e.DataPaths[:1] {
			configured[d.ID] = true
		}
	}
	a = Request{
		Block: blkA, Triggers: trigA, Model: profit.Multigrained,
		Fabric: preloadedFabric{prc: 3, cg: 3, configured: configured, fg: 400, cgPort: 30},
	}
	b = Request{Block: blkB, Triggers: trigB, Model: profit.PortBlind, Fabric: ise.EmptyFabric{PRC: 4, CG: 1}}
	return a, b
}

// TestPooledScratchReuse runs Optimal and Greedy on requests A, B, A: the
// second answer for A must equal the first in every field, Rounds and
// Evaluations included, so no pooled buffer (Optimal's groups, options,
// bounds, claimed list and choices) leaks state from one call into the
// next.
func TestPooledScratchReuse(t *testing.T) {
	a, b := poolRequests()
	for _, tc := range []struct {
		name string
		run  func(Request) (Result, error)
	}{
		{"Optimal", Optimal},
		{"Greedy", Greedy},
	} {
		first, err := tc.run(a)
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Selected) == 0 || first.Rounds < 2 {
			t.Fatalf("%s: request A selects %d ISEs in %d rounds; it must exercise the search", tc.name, len(first.Selected), first.Rounds)
		}
		other, err := tc.run(b)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(other, first) {
			t.Fatalf("%s: requests A and B give the same Result; they must differ", tc.name)
		}
		again, err := tc.run(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("%s: A after B = %+v, want %+v", tc.name, again, first)
		}
	}
}

// TestOptimalSelectedNilWhenEmpty pins that Optimal still returns a nil
// Selected (not an empty copy of its pooled choices) when it selects
// nothing.
func TestOptimalSelectedNilWhenEmpty(t *testing.T) {
	a, _ := poolRequests()
	if _, err := Optimal(a); err != nil { // leave a non-empty incumbent in the pool
		t.Fatal(err)
	}
	a.Fabric = ise.EmptyFabric{}
	res, err := Optimal(a)
	if err != nil {
		t.Fatal(err)
	}
	if res.Selected != nil {
		t.Errorf("Selected = %#v on an empty fabric, want nil", res.Selected)
	}
}

// TestSelectionAllocs pins the allocation cost of a warm Optimal: only the
// copy of its Selected choices.
func TestSelectionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	a, _ := poolRequests()
	if _, err := Optimal(a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { Optimal(a) }); n > 1 {
		t.Errorf("warm Optimal allocates %v per run, want at most 1 (the Selected copy)", n)
	}
}
