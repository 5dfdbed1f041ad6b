package core

import (
	"testing"

	"mrts/internal/arch"
	"mrts/internal/obs"
)

// TestObserverOffAllocFree pins the zero-cost-when-disabled contract of the
// observability layer on the two hot paths: with no recorder installed, a
// trigger reaction on a settled fabric and a kernel dispatch must not
// allocate for observation — every instrumentation site guards with a nil
// check before building its event.
func TestObserverOffAllocFree(t *testing.T) {
	m := MustNew(arch.Config{NCG: 1, NPRC: 1}, Options{ChargeOverhead: true})
	blk := testBlock()
	tr := triggers()
	const settled = 2_000_000
	for _, now := range []arch.Cycles{0, 1_000_000, settled} {
		if _, err := m.OnTrigger(blk, "", tr, now); err != nil {
			t.Fatal(err)
		}
	}
	k := blk.Kernels[0]

	execAllocs := testing.AllocsPerRun(200, func() { m.Execute(k, settled) })
	if execAllocs != 0 {
		t.Errorf("observer-off Execute allocates %.1f objects/op, want 0", execAllocs)
	}
	trigAllocs := testing.AllocsPerRun(200, func() {
		if _, err := m.OnTrigger(blk, "", tr, settled); err != nil {
			t.Fatal(err)
		}
	})
	// The trigger itself allocates a little (forecast slice, selection
	// result, commit bookkeeping); observation must add nothing to that.
	if trigAllocs > 8 {
		t.Errorf("observer-off settled OnTrigger allocates %.1f objects/op, want <= 8", trigAllocs)
	}

	// Contrast: with a recorder installed the same paths do record.
	rec := obs.New()
	m.SetObserver(rec)
	m.Execute(k, settled)
	if _, err := m.OnTrigger(blk, "", tr, settled); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Error("observer attached but hot paths recorded nothing")
	}
	// Reset detaches the observer (stale-state contract shared with the
	// fault verifier): a reused instance must not stream into an old trace.
	m.Reset()
	if _, err := m.OnTrigger(blk, "", tr, 0); err != nil {
		t.Fatal(err)
	}
	n := rec.Len()
	if _, err := m.OnTrigger(blk, "", tr, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != n {
		t.Error("recorder still attached after Reset")
	}
}
