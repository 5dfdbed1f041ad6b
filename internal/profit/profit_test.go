package profit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

func fgDP(id string) ise.DataPath {
	return ise.DataPath{ID: ise.DataPathID(id), Kind: arch.FG, PRCs: 1}
}
func cgDP(id string) ise.DataPath { return ise.DataPath{ID: ise.DataPathID(id), Kind: arch.CG, CGs: 1} }

func testKernel() *ise.Kernel {
	return &ise.Kernel{
		ID:          "k",
		RISCLatency: 1000,
		MonoCG:      ise.MonoCGExt{Latency: 400, Instructions: 32},
		ISEs: []*ise.ISE{
			{
				ID: "k.fg2", Kernel: "k",
				DataPaths: []ise.DataPath{fgDP("a"), fgDP("b")},
				Latencies: []arch.Cycles{500, 100},
			},
			{
				ID: "k.cg1", Kernel: "k",
				DataPaths: []ise.DataPath{cgDP("c")},
				Latencies: []arch.Cycles{300},
			},
			{
				ID: "k.mg2", Kernel: "k",
				DataPaths: []ise.DataPath{fgDP("a"), cgDP("c")},
				Latencies: []arch.Cycles{500, 150},
			},
		},
	}
}

func TestPIFFormula(t *testing.T) {
	k := testKernel()
	e := k.ISEs[1] // cg1: reconfig 15 cycles, latency 300
	// Eq. 1 by hand: sw*e / (rec + hw*e).
	execs := int64(100)
	want := float64(1000*100) / float64(15+300*100)
	if got := PIF(k, e, execs); math.Abs(got-want) > 1e-9 {
		t.Errorf("PIF = %v, want %v", got, want)
	}
}

func TestPIFZeroExecutions(t *testing.T) {
	k := testKernel()
	if PIF(k, k.ISEs[0], 0) != 0 {
		t.Error("PIF(0 executions) should be 0")
	}
}

func TestPIFAsymptote(t *testing.T) {
	// For huge execution counts pif approaches sw/hw.
	k := testKernel()
	got := PIF(k, k.ISEs[1], 1_000_000_000)
	want := 1000.0 / 300.0
	if math.Abs(got-want) > 0.001 {
		t.Errorf("PIF asymptote = %v, want %v", got, want)
	}
}

func TestPIFOrderingSmallVsLargeCounts(t *testing.T) {
	// The motivational structure: the CG ISE dominates for few
	// executions (cheap reconfiguration), the FG ISE for many (better
	// latency amortises the 1.2 ms reconfiguration).
	k := testKernel()
	fg2, cg1 := k.ISEs[0], k.ISEs[1]
	if PIF(k, cg1, 10) <= PIF(k, fg2, 10) {
		t.Error("CG ISE should win at 10 executions")
	}
	if PIF(k, fg2, 100000) <= PIF(k, cg1, 100000) {
		t.Error("FG ISE should win at 100000 executions")
	}
}

func TestRecTFromScratch(t *testing.T) {
	k := testKernel()
	rec := AppendRecT(nil, k.ISEs[0], 0, nil, Multigrained) // two FG data paths, serial port
	want := []arch.Cycles{0, arch.FGReconfigCycles, 2 * arch.FGReconfigCycles}
	for i := range want {
		if rec[i] != want[i] {
			t.Errorf("RecT[%d] = %d, want %d", i, rec[i], want[i])
		}
	}
}

func TestRecTParallelPorts(t *testing.T) {
	// mg2 = FG path then CG path: the CG context streams while the FG
	// bitstream loads, so availability is dominated by the FG port.
	k := testKernel()
	rec := AppendRecT(nil, k.ISEs[2], 0, nil, Multigrained)
	if rec[1] != arch.FGReconfigCycles {
		t.Errorf("RecT[1] = %d, want %d", rec[1], arch.FGReconfigCycles)
	}
	if rec[2] != arch.FGReconfigCycles {
		t.Errorf("RecT[2] = %d (CG must overlap FG), want %d", rec[2], arch.FGReconfigCycles)
	}
}

type configuredFabric map[ise.DataPathID]bool

func (f configuredFabric) FreePRC() int                       { return 100 }
func (f configuredFabric) FreeCG() int                        { return 100 }
func (f configuredFabric) IsConfigured(d ise.DataPathID) bool { return f[d] }

func TestRecTSharedDataPaths(t *testing.T) {
	k := testKernel()
	fab := configuredFabric{"a": true}
	rec := AppendRecT(nil, k.ISEs[0], ConfiguredMask(k.ISEs[0], fab), PortsOf(fab), Multigrained)
	if rec[1] != 0 {
		t.Errorf("configured data path should cost nothing, got %d", rec[1])
	}
	if rec[2] != arch.FGReconfigCycles {
		t.Errorf("RecT[2] = %d, want %d", rec[2], arch.FGReconfigCycles)
	}
}

type backloggedFabric struct {
	configuredFabric
	fg, cg arch.Cycles
}

func (f backloggedFabric) PortBacklog(k arch.FabricKind) arch.Cycles {
	if k == arch.FG {
		return f.fg
	}
	return f.cg
}

func TestRecTPortBacklog(t *testing.T) {
	k := testKernel()
	fab := backloggedFabric{configuredFabric: configuredFabric{}, fg: 1000}
	rec := AppendRecT(nil, k.ISEs[0], ConfiguredMask(k.ISEs[0], fab), PortsOf(fab), Multigrained)
	if rec[1] != 1000+arch.FGReconfigCycles {
		t.Errorf("RecT[1] = %d, want backlog + reconfig", rec[1])
	}
}

func TestRecTFGTunedModel(t *testing.T) {
	// The RISPP cost model charges the CG data path with FG latency on
	// the FG port.
	k := testKernel()
	rec := AppendRecT(nil, k.ISEs[2], 0, nil, FGTuned)
	if rec[2] != 2*arch.FGReconfigCycles {
		t.Errorf("FGTuned RecT[2] = %d, want %d", rec[2], 2*arch.FGReconfigCycles)
	}
}

func TestNoEBudget(t *testing.T) {
	k := testKernel()
	e := k.ISEs[0]
	p := Params{E: 50, TF: 100, TB: 10}
	noe := AppendNoE(nil, e, k, AppendRecT(nil, e, 0, nil, Multigrained), p)
	if len(noe) != 1 {
		t.Fatalf("NoE length = %d, want n-1 = 1", len(noe))
	}
	var sum float64
	for _, v := range noe {
		if v < 0 {
			t.Errorf("negative NoE %v", v)
		}
		sum += v
	}
	if sum > float64(p.E) {
		t.Errorf("NoE sum %v exceeds expected executions %d", sum, p.E)
	}
}

func TestNoEZeroExecutions(t *testing.T) {
	k := testKernel()
	noe := AppendNoE(nil, k.ISEs[0], k, AppendRecT(nil, k.ISEs[0], 0, nil, Multigrained), Params{E: 0, TB: 10})
	for _, v := range noe {
		if v != 0 {
			t.Errorf("NoE with e=0 should be all zero, got %v", noe)
		}
	}
}

func TestNoESingleDataPath(t *testing.T) {
	k := testKernel()
	if noe := AppendNoE(nil, k.ISEs[1], k, AppendRecT(nil, k.ISEs[1], 0, nil, Multigrained), Params{E: 100, TB: 10}); noe != nil {
		t.Errorf("single-data-path ISE has no intermediate ISEs, got %v", noe)
	}
}

func TestProfitZeroWhenNoExecutions(t *testing.T) {
	k := testKernel()
	var s Scratch
	if got := s.Profit(k, k.ISEs[0], 0, nil, Params{E: 0}, Multigrained); got != 0 {
		t.Errorf("profit with e=0 = %v", got)
	}
}

func TestProfitCGBeatsFGAtFewExecutions(t *testing.T) {
	k := testKernel()
	var s Scratch
	p := Params{E: 30, TF: 50, TB: 100}
	cg := s.Profit(k, k.ISEs[1], 0, nil, p, Multigrained)
	fg := s.Profit(k, k.ISEs[0], 0, nil, p, Multigrained)
	if cg <= fg {
		t.Errorf("CG profit (%v) should beat FG profit (%v) at 30 executions", cg, fg)
	}
}

func TestProfitSharedDataPathsIncrease(t *testing.T) {
	k := testKernel()
	var s Scratch
	p := Params{E: 500, TF: 50, TB: 100}
	base := s.Profit(k, k.ISEs[0], 0, nil, p, Multigrained)
	shared := s.Profit(k, k.ISEs[0], ConfiguredMask(k.ISEs[0], configuredFabric{"a": true, "b": true}), PortsOf(configuredFabric{"a": true, "b": true}), p, Multigrained)
	if shared <= base {
		t.Errorf("fully configured ISE profit (%v) should exceed from-scratch (%v)", shared, base)
	}
	// A fully configured ISE saves the full improvement on every
	// execution.
	want := float64(p.E) * float64(k.RISCLatency-k.ISEs[0].FullLatency())
	if math.Abs(shared-want) > 1 {
		t.Errorf("fully configured profit = %v, want %v", shared, want)
	}
}

func TestProfitBoundedBySteadyState(t *testing.T) {
	k := testKernel()
	var s Scratch
	f := func(e uint16, tf uint16, tb uint8) bool {
		p := Params{E: int64(e % 5000), TF: arch.Cycles(tf), TB: arch.Cycles(tb)}
		for _, ext := range k.ISEs {
			pr := s.Profit(k, ext, 0, nil, p, Multigrained)
			if pr < 0 {
				return false
			}
			if pr > SteadyStateProfit(k, ext, p.E)+1e-6 {
				return false
			}
		}
		return true
	}
	const seed = 1
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

func TestProfitMonotonicInExecutions(t *testing.T) {
	k := testKernel()
	var s Scratch
	p1 := Params{E: 100, TF: 50, TB: 20}
	p2 := Params{E: 1000, TF: 50, TB: 20}
	for _, ext := range k.ISEs {
		if s.Profit(k, ext, 0, nil, p2, Multigrained) < s.Profit(k, ext, 0, nil, p1, Multigrained) {
			t.Errorf("ISE %s: profit decreased with more executions", ext.ID)
		}
	}
}

func TestMonoCGProfit(t *testing.T) {
	k := testKernel()
	p := Params{E: 100, TF: 50, TB: 20}
	got := MonoCGProfit(k, p)
	if got <= 0 {
		t.Fatalf("monoCG profit = %v, want positive", got)
	}
	max := float64(p.E) * float64(k.RISCLatency-k.MonoCG.Latency)
	if got > max {
		t.Errorf("monoCG profit %v exceeds bound %v", got, max)
	}
	none := &ise.Kernel{ID: "n", RISCLatency: 100}
	if MonoCGProfit(none, p) != 0 {
		t.Error("kernel without monoCG should have zero profit")
	}
}

func TestSteadyStateProfit(t *testing.T) {
	k := testKernel()
	if got := SteadyStateProfit(k, k.ISEs[1], 10); got != 7000 {
		t.Errorf("steady-state profit = %v, want 7000", got)
	}
	if SteadyStateProfit(k, k.ISEs[1], 0) != 0 {
		t.Error("zero executions should yield zero profit")
	}
}

func TestParamsFromTrigger(t *testing.T) {
	p := ParamsFromTrigger(ise.Trigger{Kernel: "k", E: 7, TF: 8, TB: 9})
	if p.E != 7 || p.TF != 8 || p.TB != 9 {
		t.Errorf("ParamsFromTrigger = %+v", p)
	}
}

func TestPortBlindIgnoresBacklog(t *testing.T) {
	k := testKernel()
	var s Scratch
	fab := backloggedFabric{configuredFabric: configuredFabric{}, fg: 500_000}
	aware := s.Profit(k, k.ISEs[0], ConfiguredMask(k.ISEs[0], fab), PortsOf(fab), Params{E: 1000, TF: 100, TB: 50}, Multigrained)
	blind := s.Profit(k, k.ISEs[0], ConfiguredMask(k.ISEs[0], fab), PortsOf(fab), Params{E: 1000, TF: 100, TB: 50}, PortBlind)
	if blind <= aware {
		t.Errorf("port-blind profit (%v) should exceed port-aware (%v) under a big backlog", blind, aware)
	}
	rec := AppendRecT(nil, k.ISEs[0], ConfiguredMask(k.ISEs[0], fab), PortsOf(fab), PortBlind)
	if rec[1] != arch.FGReconfigCycles {
		t.Errorf("port-blind RecT[1] = %d, want bare reconfiguration time", rec[1])
	}
}
