package reconfig

import (
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

func fgDP(id string) ise.DataPath {
	return ise.DataPath{ID: ise.DataPathID(id), Kind: arch.FG, PRCs: 1}
}
func cgDP(id string) ise.DataPath {
	return ise.DataPath{ID: ise.DataPathID(id), Kind: arch.CG, CGs: 1}
}

func mkISE(id string, dps ...ise.DataPath) *ise.ISE {
	lats := make([]arch.Cycles, len(dps))
	for i := range lats {
		lats[i] = arch.Cycles(100 - 10*i)
	}
	return &ise.ISE{ID: id, Kernel: "k", DataPaths: dps, Latencies: lats}
}

func newCtrl(t *testing.T, prc, cg int) *Controller {
	t.Helper()
	c, err := NewController(arch.Config{NPRC: prc, NCG: cg})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidates(t *testing.T) {
	if _, err := NewController(arch.Config{NPRC: -1}); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestRequestTiming(t *testing.T) {
	c := newCtrl(t, 2, 2)
	ready, err := c.Request(fgDP("a"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 1000+arch.FGReconfigCycles {
		t.Errorf("ready = %d, want %d", ready, 1000+arch.FGReconfigCycles)
	}
	if c.IsConfigured("a") {
		t.Error("data path configured before reconfiguration completes")
	}
	c.Advance(ready)
	if !c.IsConfigured("a") {
		t.Error("data path not configured after completion")
	}
}

func TestRequestIdempotent(t *testing.T) {
	c := newCtrl(t, 1, 0)
	r1, _ := c.Request(fgDP("a"), 0)
	r2, err := c.Request(fgDP("a"), 500)
	if err != nil || r2 != r1 {
		t.Errorf("re-request changed ready time: %d vs %d (%v)", r2, r1, err)
	}
}

func TestFGPortSerialises(t *testing.T) {
	c := newCtrl(t, 2, 0)
	r1, _ := c.Request(fgDP("a"), 0)
	r2, _ := c.Request(fgDP("b"), 0)
	if r2 != r1+arch.FGReconfigCycles {
		t.Errorf("second FG reconfiguration at %d, want %d (serial port)", r2, r1+arch.FGReconfigCycles)
	}
}

func TestCGAndFGPortsIndependent(t *testing.T) {
	c := newCtrl(t, 1, 1)
	rf, _ := c.Request(fgDP("a"), 0)
	rc, _ := c.Request(cgDP("b"), 0)
	if rc >= rf {
		t.Errorf("CG context load (%d) should not wait for the FG port (%d)", rc, rf)
	}
	if rc != arch.CGReconfigCycles {
		t.Errorf("CG ready = %d, want %d", rc, arch.CGReconfigCycles)
	}
}

func TestCapacityExhausted(t *testing.T) {
	c := newCtrl(t, 1, 0)
	if _, err := c.Request(fgDP("a"), 0); err != nil {
		t.Fatal(err)
	}
	// "a" is pinned, so there is nothing to evict.
	if _, err := c.Request(fgDP("b"), 0); err == nil {
		t.Error("over-capacity request accepted")
	}
}

func TestLazyEviction(t *testing.T) {
	c := newCtrl(t, 1, 0)
	e1 := mkISE("e1", fgDP("a"))
	e2 := mkISE("e2", fgDP("b"))
	if _, err := c.CommitSelection([]*ise.ISE{e1}, 0); err != nil {
		t.Fatal(err)
	}
	c.Advance(arch.FGReconfigCycles)
	if !c.IsConfigured("a") {
		t.Fatal("a not configured")
	}
	// Committing an empty selection unpins but must NOT evict.
	if _, err := c.CommitSelection(nil, arch.FGReconfigCycles); err != nil {
		t.Fatal(err)
	}
	if !c.IsConfigured("a") {
		t.Error("unpinned data path evicted eagerly")
	}
	// Committing e2 needs the PRC: now "a" is evicted.
	if _, err := c.CommitSelection([]*ise.ISE{e2}, arch.FGReconfigCycles); err != nil {
		t.Fatal(err)
	}
	if c.IsConfigured("a") {
		t.Error("a should have been evicted to make room for b")
	}
	if c.Stats().Evictions != 1 {
		t.Errorf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestRecommitKeepsConfiguredPaths(t *testing.T) {
	c := newCtrl(t, 1, 1)
	e := mkISE("e", fgDP("a"), cgDP("b"))
	done, err := c.CommitSelection([]*ise.ISE{e}, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.Advance(done[0])
	// Re-committing the same selection must not schedule anything new.
	before := c.Stats()
	done2, err := c.CommitSelection([]*ise.ISE{e}, done[0])
	if err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.FGReconfigs != before.FGReconfigs || after.CGReconfigs != before.CGReconfigs {
		t.Error("re-commit scheduled redundant reconfigurations")
	}
	if done2[0] != done[0] {
		t.Errorf("re-commit completion %d, want %d", done2[0], done[0])
	}
}

func TestCommitCompletionTimes(t *testing.T) {
	c := newCtrl(t, 2, 1)
	e := mkISE("e", fgDP("a"), cgDP("b"), fgDP("c"))
	done, err := c.CommitSelection([]*ise.ISE{e}, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := arch.Cycles(100) + 2*arch.FGReconfigCycles // two serial FG loads dominate
	if done[0] != want {
		t.Errorf("completion = %d, want %d", done[0], want)
	}
}

func TestConfiguredPrefix(t *testing.T) {
	c := newCtrl(t, 2, 1)
	e := mkISE("e", fgDP("a"), cgDP("b"), fgDP("c"))
	if _, err := c.CommitSelection([]*ise.ISE{e}, 0); err != nil {
		t.Fatal(err)
	}
	c.Advance(arch.CGReconfigCycles)
	// CG path "b" is ready but prefix stops at unconfigured "a".
	if got := c.ConfiguredPrefix(e); got != 0 {
		t.Errorf("prefix = %d, want 0", got)
	}
	c.Advance(arch.FGReconfigCycles)
	if got := c.ConfiguredPrefix(e); got != 2 {
		t.Errorf("prefix = %d, want 2 (a and b)", got)
	}
	c.Advance(2 * arch.FGReconfigCycles)
	if got := c.ConfiguredPrefix(e); got != 3 {
		t.Errorf("prefix = %d, want 3", got)
	}
}

func TestReserve(t *testing.T) {
	c := newCtrl(t, 2, 2)
	if err := c.Reserve(1, 1); err != nil {
		t.Fatal(err)
	}
	if c.FreePRC() != 1 || c.FreeCG() != 1 {
		t.Errorf("free after reserve = %d/%d, want 1/1", c.FreePRC(), c.FreeCG())
	}
	if err := c.Reserve(3, 0); err == nil {
		t.Error("over-budget reservation accepted")
	}
	if err := c.Reserve(-1, 0); err == nil {
		t.Error("negative reservation accepted")
	}
	prc, cg := c.Reserved()
	if prc != 1 || cg != 1 {
		t.Errorf("Reserved = %d/%d", prc, cg)
	}
}

func TestReserveEvictsUnpinned(t *testing.T) {
	c := newCtrl(t, 1, 0)
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e", fgDP("a"))}, 0); err != nil {
		t.Fatal(err)
	}
	// Pinned: reservation must fail.
	if err := c.Reserve(1, 0); err == nil {
		t.Error("reservation evicted a pinned data path")
	}
	// Unpin by committing nothing, then the reservation may evict.
	if _, err := c.CommitSelection(nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Reserve(1, 0); err != nil {
		t.Errorf("reservation failed despite evictable path: %v", err)
	}
	if c.IsConfigured("a") {
		t.Error("path survived reservation")
	}
}

func TestMonoCG(t *testing.T) {
	c := newCtrl(t, 0, 1)
	k := &ise.Kernel{
		ID: "k", RISCLatency: 100,
		MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 16},
	}
	ready, ok := c.AcquireMonoCG(k, 1000)
	if !ok {
		t.Fatal("monoCG not acquired on free CG-EDPE")
	}
	if ready != 1000+k.MonoCG.ReconfigCycles() {
		t.Errorf("monoCG ready = %d", ready)
	}
	// Occupies the EDPE.
	if c.FreeCG() != 0 {
		t.Errorf("FreeCG = %d after monoCG, want 0", c.FreeCG())
	}
	// Idempotent.
	r2, ok := c.AcquireMonoCG(k, 2000)
	if !ok || r2 != ready {
		t.Error("second acquire should return existing slot")
	}
	if got, ok := c.MonoCGReady("k"); !ok || got != ready {
		t.Error("MonoCGReady wrong")
	}
	c.ReleaseMonoCG("k")
	if _, ok := c.MonoCGReady("k"); ok {
		t.Error("monoCG survived release")
	}
	if c.FreeCG() != 1 {
		t.Error("CG-EDPE not freed")
	}
}

func TestMonoCGUnavailable(t *testing.T) {
	c := newCtrl(t, 0, 1)
	plain := &ise.Kernel{ID: "p", RISCLatency: 100}
	if _, ok := c.AcquireMonoCG(plain, 0); ok {
		t.Error("kernel without monoCG acquired a slot")
	}
	k := &ise.Kernel{ID: "k", RISCLatency: 100, MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 8}}
	k2 := &ise.Kernel{ID: "k2", RISCLatency: 100, MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 8}}
	if _, ok := c.AcquireMonoCG(k, 0); !ok {
		t.Fatal("first acquire failed")
	}
	if _, ok := c.AcquireMonoCG(k2, 0); ok {
		t.Error("second monoCG acquired without free CG-EDPE")
	}
}

func TestMonoCGEvictsUnpinnedCG(t *testing.T) {
	c := newCtrl(t, 0, 1)
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e", cgDP("d"))}, 0); err != nil {
		t.Fatal(err)
	}
	// Unpin the CG data path, then monoCG may take the EDPE.
	if _, err := c.CommitSelection(nil, 100); err != nil {
		t.Fatal(err)
	}
	k := &ise.Kernel{ID: "k", RISCLatency: 100, MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 8}}
	if _, ok := c.AcquireMonoCG(k, 200); !ok {
		t.Error("monoCG failed to evict unpinned CG data path")
	}
}

func TestCommitReleasesMonoCG(t *testing.T) {
	c := newCtrl(t, 0, 1)
	k := &ise.Kernel{ID: "k", RISCLatency: 100, MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 8}}
	if _, ok := c.AcquireMonoCG(k, 0); !ok {
		t.Fatal("acquire failed")
	}
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e", cgDP("d"))}, 100); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.MonoCGReady("k"); ok {
		t.Error("monoCG slot survived a new selection commit")
	}
}

func TestSelectionView(t *testing.T) {
	c := newCtrl(t, 2, 2)
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e", fgDP("a"), cgDP("b"))}, 0); err != nil {
		t.Fatal(err)
	}
	v := c.SelectionView()
	// The whole budget counts as free for a new selection.
	if v.FreePRC() != 2 || v.FreeCG() != 2 {
		t.Errorf("selection view free = %d/%d, want 2/2", v.FreePRC(), v.FreeCG())
	}
	c.Advance(arch.FGReconfigCycles)
	if !v.IsConfigured("a") {
		t.Error("selection view must expose configured data paths")
	}
	// Port backlog is relative to the controller's time.
	pv, ok := v.(ise.PortView)
	if !ok {
		t.Fatal("selection view must implement PortView")
	}
	if got := pv.PortBacklog(arch.FG); got != 0 {
		t.Errorf("FG backlog = %d, want 0 after completion", got)
	}
	c2 := newCtrl(t, 2, 2)
	if _, err := c2.Request(fgDP("x"), 0); err != nil {
		t.Fatal(err)
	}
	pv2 := c2.SelectionView().(ise.PortView)
	if got := pv2.PortBacklog(arch.FG); got != arch.FGReconfigCycles {
		t.Errorf("FG backlog = %d, want %d", got, arch.FGReconfigCycles)
	}
	// Reservations shrink the selection view.
	if err := c2.Reserve(1, 1); err != nil {
		t.Fatal(err)
	}
	v2 := c2.SelectionView()
	if v2.FreePRC() != 1 || v2.FreeCG() != 1 {
		t.Errorf("reserved selection view = %d/%d, want 1/1", v2.FreePRC(), v2.FreeCG())
	}
}

func TestEvictAllAndReset(t *testing.T) {
	c := newCtrl(t, 1, 1)
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e", fgDP("a"), cgDP("b"))}, 0); err != nil {
		t.Fatal(err)
	}
	c.EvictAll()
	if len(c.ConfiguredPaths()) != 0 {
		t.Error("paths survived EvictAll")
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("Reset did not clear time")
	}
	if c.FreePRC() != 1 || c.FreeCG() != 1 {
		t.Error("Reset did not restore capacity")
	}
}

func TestConfiguredPathsSorted(t *testing.T) {
	c := newCtrl(t, 0, 3)
	for _, id := range []string{"zz", "aa", "mm"} {
		if _, err := c.Request(cgDP(id), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10 * arch.CGReconfigCycles)
	got := c.ConfiguredPaths()
	if len(got) != 3 || got[0] != "aa" || got[1] != "mm" || got[2] != "zz" {
		t.Errorf("ConfiguredPaths = %v, want sorted", got)
	}
}

func TestAdvanceMonotone(t *testing.T) {
	c := newCtrl(t, 0, 0)
	c.Advance(100)
	c.Advance(50)
	if c.Now() != 100 {
		t.Errorf("time moved backwards: %d", c.Now())
	}
}

func TestEvictionOrderDeterministic(t *testing.T) {
	// Two unpinned paths with equal readiness: the smaller ID goes first.
	c := newCtrl(t, 0, 2)
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e1", cgDP("b")), mkISE("e2", cgDP("a"))}, 0); err != nil {
		t.Fatal(err)
	}
	c.Advance(10 * arch.CGReconfigCycles)
	if _, err := c.CommitSelection([]*ise.ISE{mkISE("e3", cgDP("c"))}, c.Now()); err != nil {
		t.Fatal(err)
	}
	// One of a/b evicted; with equal ready times "a" has the smaller
	// ready (requested first: b then a — serial CG port => b earlier).
	// The eviction rule is (ready, ID) ascending, so "b" goes first.
	if c.IsConfigured("b") && !c.IsConfigured("a") {
		t.Error("eviction order not deterministic: b should have been evicted before a")
	}
}

func TestCommitSelectionOverBudgetFails(t *testing.T) {
	c := newCtrl(t, 1, 0)
	tooBig := mkISE("big", fgDP("x"), fgDP("y"))
	if _, err := c.CommitSelection([]*ise.ISE{tooBig}, 0); err == nil {
		t.Error("selection larger than the fabric accepted")
	}
}

// TestControllerQueriesAllocFree pins that the per-trigger and
// per-execution queries allocate nothing: IsConfigured, NextReady (with a
// load in flight, so it scans the slots) and a Request for a data path
// that is already present.
func TestControllerQueriesAllocFree(t *testing.T) {
	c := newCtrl(t, 4, 3)
	if _, err := c.CommitSelection([]*ise.ISE{
		mkISE("e1", fgDP("a"), fgDP("b")), mkISE("e2", cgDP("c")), mkISE("e3", fgDP("d")),
	}, 0); err != nil {
		t.Fatal(err)
	}
	if c.NextReady(0) == Forever {
		t.Fatal("no load in flight at time 0")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.IsConfigured("d")
		c.IsConfigured("missing")
		c.NextReady(0)
		if _, err := c.Request(fgDP("b"), 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("controller queries allocate %v per run, want 0", allocs)
	}
}
