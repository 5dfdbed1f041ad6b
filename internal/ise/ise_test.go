package ise

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
)

func fgDP(id string) DataPath { return DataPath{ID: DataPathID(id), Kind: arch.FG, PRCs: 1} }
func cgDP(id string) DataPath { return DataPath{ID: DataPathID(id), Kind: arch.CG, CGs: 1} }

func validISE() *ISE {
	return &ISE{
		ID:        "k.mg2",
		Kernel:    "k",
		DataPaths: []DataPath{fgDP("a"), cgDP("b")},
		Latencies: []arch.Cycles{100, 60},
	}
}

func validKernel() *Kernel {
	return &Kernel{
		ID:          "k",
		Name:        "kernel",
		RISCLatency: 200,
		MonoCG:      MonoCGExt{Latency: 150, Instructions: 40},
		ISEs:        []*ISE{validISE()},
	}
}

func TestDataPathValidate(t *testing.T) {
	cases := []struct {
		name string
		dp   DataPath
		ok   bool
	}{
		{"fg ok", fgDP("a"), true},
		{"cg ok", cgDP("b"), true},
		{"empty id", DataPath{Kind: arch.FG, PRCs: 1}, false},
		{"fg without prc", DataPath{ID: "x", Kind: arch.FG}, false},
		{"fg with cg units", DataPath{ID: "x", Kind: arch.FG, PRCs: 1, CGs: 1}, false},
		{"cg without units", DataPath{ID: "x", Kind: arch.CG}, false},
		{"cg with prc units", DataPath{ID: "x", Kind: arch.CG, CGs: 1, PRCs: 1}, false},
		{"bad kind", DataPath{ID: "x", Kind: arch.FabricKind(7), PRCs: 1}, false},
	}
	for _, c := range cases {
		if err := c.dp.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestDataPathReconfigCycles(t *testing.T) {
	if got := fgDP("a").ReconfigCycles(); got != arch.FGReconfigCycles {
		t.Errorf("FG data path reconfig = %d, want %d", got, arch.FGReconfigCycles)
	}
	if got := cgDP("b").ReconfigCycles(); got != arch.CGReconfigCycles {
		t.Errorf("CG data path reconfig = %d, want %d", got, arch.CGReconfigCycles)
	}
	wide := DataPath{ID: "w", Kind: arch.FG, PRCs: 3}
	if got := wide.ReconfigCycles(); got != 3*arch.FGReconfigCycles {
		t.Errorf("3-PRC data path reconfig = %d, want %d", got, 3*arch.FGReconfigCycles)
	}
}

func TestISEValidate(t *testing.T) {
	ok := validISE()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid ISE rejected: %v", err)
	}

	bad := validISE()
	bad.ID = ""
	if bad.Validate() == nil {
		t.Error("empty ID accepted")
	}

	bad = validISE()
	bad.Kernel = ""
	if bad.Validate() == nil {
		t.Error("empty kernel accepted")
	}

	bad = validISE()
	bad.DataPaths = nil
	bad.Latencies = nil
	if bad.Validate() == nil {
		t.Error("ISE without data paths accepted")
	}

	bad = validISE()
	bad.Latencies = []arch.Cycles{100}
	if bad.Validate() == nil {
		t.Error("latency/data-path length mismatch accepted")
	}

	bad = validISE()
	bad.Latencies = []arch.Cycles{60, 100} // increasing
	if bad.Validate() == nil {
		t.Error("increasing latencies accepted")
	}

	bad = validISE()
	bad.Latencies = []arch.Cycles{100, 0}
	if bad.Validate() == nil {
		t.Error("zero latency accepted")
	}

	bad = validISE()
	bad.DataPaths = []DataPath{fgDP("a"), fgDP("a")}
	if bad.Validate() == nil {
		t.Error("duplicate data path accepted")
	}
}

func TestISECosts(t *testing.T) {
	e := &ISE{
		ID:        "x",
		Kernel:    "k",
		DataPaths: []DataPath{fgDP("a"), fgDP("b"), cgDP("c")},
		Latencies: []arch.Cycles{90, 70, 40},
	}
	if e.CostPRC() != 2 || e.CostCG() != 1 {
		t.Errorf("costs = %d/%d, want 2/1", e.CostPRC(), e.CostCG())
	}
	if e.Grain() != arch.GrainMG {
		t.Errorf("grain = %v, want MG", e.Grain())
	}
	if !e.Fits(2, 1) || e.Fits(1, 1) || e.Fits(2, 0) {
		t.Error("Fits boundary wrong")
	}
	if e.NumDataPaths() != 3 {
		t.Errorf("NumDataPaths = %d", e.NumDataPaths())
	}
	if e.Latency(1) != 90 || e.Latency(3) != 40 || e.FullLatency() != 40 {
		t.Error("latency indexing wrong")
	}
}

func TestISEGrainPure(t *testing.T) {
	fgISE := &ISE{ID: "f", Kernel: "k", DataPaths: []DataPath{fgDP("a")}, Latencies: []arch.Cycles{10}}
	if fgISE.Grain() != arch.GrainFG {
		t.Errorf("grain = %v, want FG", fgISE.Grain())
	}
	cgISE := &ISE{ID: "c", Kernel: "k", DataPaths: []DataPath{cgDP("b")}, Latencies: []arch.Cycles{10}}
	if cgISE.Grain() != arch.GrainCG {
		t.Errorf("grain = %v, want CG", cgISE.Grain())
	}
}

func TestISEReconfigCycles(t *testing.T) {
	e := validISE() // FG then CG
	if got := e.ReconfigCycles(0); got != 0 {
		t.Errorf("ReconfigCycles(0) = %d", got)
	}
	if got := e.ReconfigCycles(1); got != arch.FGReconfigCycles {
		t.Errorf("ReconfigCycles(1) = %d", got)
	}
	want := arch.FGReconfigCycles + arch.CGReconfigCycles
	if got := e.TotalReconfigCycles(); got != want {
		t.Errorf("TotalReconfigCycles = %d, want %d", got, want)
	}
}

func TestMonoCGExt(t *testing.T) {
	var zero MonoCGExt
	if zero.Available() {
		t.Error("zero monoCG should be unavailable")
	}
	if zero.ReconfigCycles() != 0 {
		t.Error("unavailable monoCG should have zero reconfig")
	}

	m := MonoCGExt{Latency: 100, Instructions: arch.CGContextInstructions}
	// Exactly one context: one context load, no context switch.
	if got := m.ReconfigCycles(); got != arch.CGReconfigCycles {
		t.Errorf("1-context monoCG reconfig = %d, want %d", got, arch.CGReconfigCycles)
	}
	m.Instructions = arch.CGContextInstructions + 1
	// Two contexts: two loads plus one switch.
	want := 2*arch.CGReconfigCycles + arch.CGContextSwitchCycles
	if got := m.ReconfigCycles(); got != want {
		t.Errorf("2-context monoCG reconfig = %d, want %d", got, want)
	}
}

func TestKernelValidate(t *testing.T) {
	if err := validKernel().Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}

	k := validKernel()
	k.RISCLatency = 0
	if k.Validate() == nil {
		t.Error("zero RISC latency accepted")
	}

	k = validKernel()
	k.MonoCG.Latency = 300 // slower than RISC
	if k.Validate() == nil {
		t.Error("monoCG slower than RISC accepted")
	}

	k = validKernel()
	k.ISEs[0].Latencies = []arch.Cycles{250, 220} // full latency > RISC
	if k.Validate() == nil {
		t.Error("ISE slower than RISC accepted")
	}

	k = validKernel()
	k.ISEs = append(k.ISEs, validISE()) // duplicate ISE ID
	if k.Validate() == nil {
		t.Error("duplicate ISE ID accepted")
	}

	k = validKernel()
	other := validISE()
	other.ID = "other"
	other.Kernel = "someone-else"
	k.ISEs = append(k.ISEs, other)
	if k.Validate() == nil {
		t.Error("foreign ISE accepted")
	}
}

func TestKernelISEByID(t *testing.T) {
	k := validKernel()
	if k.ISEByID("k.mg2") == nil {
		t.Error("existing ISE not found")
	}
	if k.ISEByID("nope") != nil {
		t.Error("missing ISE found")
	}
}

func TestFunctionalBlock(t *testing.T) {
	b := &FunctionalBlock{ID: "b", Kernels: []*Kernel{validKernel()}}
	if err := b.Validate(); err != nil {
		t.Fatalf("valid block rejected: %v", err)
	}
	if b.Kernel("k") == nil || b.Kernel("x") != nil {
		t.Error("block kernel lookup wrong")
	}

	if (&FunctionalBlock{ID: "", Kernels: b.Kernels}).Validate() == nil {
		t.Error("empty block ID accepted")
	}
	if (&FunctionalBlock{ID: "b"}).Validate() == nil {
		t.Error("empty block accepted")
	}
	dup := &FunctionalBlock{ID: "b", Kernels: []*Kernel{validKernel(), validKernel()}}
	if dup.Validate() == nil {
		t.Error("duplicate kernel accepted")
	}
}

func TestTriggerValidate(t *testing.T) {
	if (Trigger{Kernel: "k", E: 10, TF: 5, TB: 3}).Validate() != nil {
		t.Error("valid trigger rejected")
	}
	if (Trigger{E: 10}).Validate() == nil {
		t.Error("empty kernel accepted")
	}
	if (Trigger{Kernel: "k", E: -1}).Validate() == nil {
		t.Error("negative executions accepted")
	}
	if (Trigger{Kernel: "k", TF: -1}).Validate() == nil {
		t.Error("negative tf accepted")
	}
}

func TestApplication(t *testing.T) {
	b := &FunctionalBlock{ID: "b", Kernels: []*Kernel{validKernel()}}
	app, err := NewApplication("app", b)
	if err != nil {
		t.Fatalf("NewApplication: %v", err)
	}
	if app.Kernel("k") == nil {
		t.Error("kernel lookup failed")
	}
	if app.Block("b") == nil || app.Block("x") != nil {
		t.Error("block lookup wrong")
	}
	ids := app.KernelIDs()
	if len(ids) != 1 || ids[0] != "k" {
		t.Errorf("KernelIDs = %v", ids)
	}
}

func TestApplicationDuplicateKernel(t *testing.T) {
	b1 := &FunctionalBlock{ID: "b1", Kernels: []*Kernel{validKernel()}}
	b2 := &FunctionalBlock{ID: "b2", Kernels: []*Kernel{validKernel()}}
	_, err := NewApplication("app", b1, b2)
	if err == nil || !strings.Contains(err.Error(), "two distinct kernels") {
		t.Errorf("duplicate kernel IDs across blocks accepted: %v", err)
	}
}

func TestEmptyFabric(t *testing.T) {
	f := EmptyFabric{PRC: 2, CG: 3}
	if f.FreePRC() != 2 || f.FreeCG() != 3 {
		t.Error("EmptyFabric capacity wrong")
	}
	if f.IsConfigured("anything") {
		t.Error("EmptyFabric should have nothing configured")
	}
}

// Property: any ISE built with a non-increasing positive latency ladder and
// distinct data paths validates.
func TestISEValidateProperty(t *testing.T) {
	f := func(seed uint8, n uint8) bool {
		count := int(n%4) + 1
		var dps []DataPath
		var lats []arch.Cycles
		lat := arch.Cycles(1000 + int(seed))
		for i := 0; i < count; i++ {
			id := DataPathID(strings.Repeat("d", i+1))
			if (int(seed)+i)%2 == 0 {
				dps = append(dps, DataPath{ID: id, Kind: arch.FG, PRCs: 1})
			} else {
				dps = append(dps, DataPath{ID: id, Kind: arch.CG, CGs: 1})
			}
			lats = append(lats, lat)
			if lat > 1 {
				lat -= arch.Cycles(int(seed)%7) + 1
			}
		}
		e := &ISE{ID: "p", Kernel: "k", DataPaths: dps, Latencies: lats}
		return e.Validate() == nil
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}
