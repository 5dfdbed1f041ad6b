package profit_test

import (
	"fmt"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/profit"
)

// ExamplePIF reproduces the motivational observation of the paper's case
// study: a coarse-grained ISE dominates for few kernel executions, a
// fine-grained one once its millisecond reconfiguration amortises.
func ExamplePIF() {
	kernel := &ise.Kernel{ID: "k", RISCLatency: 2000}
	fgISE := &ise.ISE{
		ID: "k.fg", Kernel: "k",
		DataPaths: []ise.DataPath{{ID: "fg", Kind: arch.FG, PRCs: 1}},
		Latencies: []arch.Cycles{255},
	}
	cgISE := &ise.ISE{
		ID: "k.cg", Kernel: "k",
		DataPaths: []ise.DataPath{{ID: "cg", Kind: arch.CG, CGs: 1}},
		Latencies: []arch.Cycles{375},
	}
	for _, e := range []int64{100, 50000} {
		fg := profit.PIF(kernel, fgISE, e)
		cg := profit.PIF(kernel, cgISE, e)
		winner := "CG"
		if fg > cg {
			winner = "FG"
		}
		fmt.Printf("%d executions: %s wins\n", e, winner)
	}
	// Output:
	// 100 executions: CG wins
	// 50000 executions: FG wins
}

// ExampleScratch_Profit shows the expected profit (cycles saved) of an ISE
// under a trigger forecast; the reconfiguration transient is part of the
// estimate.
func ExampleScratch_Profit() {
	kernel := &ise.Kernel{ID: "k", RISCLatency: 1000}
	cgISE := &ise.ISE{
		ID: "k.cg", Kernel: "k",
		DataPaths: []ise.DataPath{{ID: "cg", Kind: arch.CG, CGs: 1}},
		Latencies: []arch.Cycles{200},
	}
	var s profit.Scratch
	p := s.Profit(kernel, cgISE, 0, nil,
		profit.Params{E: 100, TF: 500, TB: 50}, profit.Multigrained)
	fmt.Printf("expected saving: %.0f cycles\n", p)
	// Output: expected saving: 80000 cycles
}
