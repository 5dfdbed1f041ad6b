package profit

import (
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

// scratchCases spans the input surface of the profit kernels: every model,
// a nil fabric, shared (pre-configured) data paths and port backlogs.
func scratchCases() []struct {
	name string
	fab  ise.FabricView
	m    Model
} {
	return []struct {
		name string
		fab  ise.FabricView
		m    Model
	}{
		{"nil-multigrained", nil, Multigrained},
		{"nil-fgtuned", nil, FGTuned},
		{"nil-portblind", nil, PortBlind},
		{"shared", configuredFabric{"a": true}, Multigrained},
		{"backlogged", backloggedFabric{configuredFabric: configuredFabric{}, fg: 900, cg: 40}, Multigrained},
		{"backlogged-fgtuned", backloggedFabric{configuredFabric: configuredFabric{"c": true}, fg: 900, cg: 40}, FGTuned},
		{"backlogged-portblind", backloggedFabric{configuredFabric: configuredFabric{}, fg: 900, cg: 40}, PortBlind},
	}
}

// TestAppendRecTMatchesRecT pins the append-into contract: the RecT values
// appended after a dst prefix (which must survive unchanged) match the ones
// appended into a fresh buffer, one per data path plus the zero start.
func TestAppendRecTMatchesRecT(t *testing.T) {
	k := testKernel()
	for _, tc := range scratchCases() {
		for _, e := range k.ISEs {
			want := AppendRecT(nil, e, tc.fab, tc.m)
			if len(want) != e.NumDataPaths()+1 {
				t.Fatalf("%s/%s: AppendRecT len = %d, want %d", tc.name, e.ID, len(want), e.NumDataPaths()+1)
			}
			got := AppendRecT([]arch.Cycles{7, 8}, e, tc.fab, tc.m)
			if got[0] != 7 || got[1] != 8 {
				t.Errorf("%s/%s: AppendRecT clobbered the dst prefix", tc.name, e.ID)
			}
			for i := range want {
				if got[2+i] != want[i] {
					t.Errorf("%s/%s: AppendRecT with prefix [%d] = %d, want %d", tc.name, e.ID, i, got[2+i], want[i])
				}
			}
		}
	}
}

// TestAppendNoEMatchesNoE pins AppendNoE's contract for every ISE and
// case: the NoE values appended after a dst prefix (which must survive
// unchanged) match the ones appended into a fresh buffer, exactly
// NumDataPaths()-1 of them.
func TestAppendNoEMatchesNoE(t *testing.T) {
	k := testKernel()
	params := []Params{
		{E: 500, TF: 100, TB: 60},
		{E: 0, TF: 0, TB: 0},
		{E: 3, TF: 5000, TB: 1},
	}
	for _, tc := range scratchCases() {
		for _, e := range k.ISEs {
			rec := AppendRecT(nil, e, tc.fab, tc.m)
			for _, p := range params {
				want := AppendNoE(nil, e, k, rec, p)
				if n := max(e.NumDataPaths()-1, 0); len(want) != n {
					t.Fatalf("%s/%s: AppendNoE len = %d, want %d", tc.name, e.ID, len(want), n)
				}
				got := AppendNoE([]float64{-1}, e, k, rec, p)
				if got[0] != -1 {
					t.Errorf("%s/%s: AppendNoE clobbered the dst prefix", tc.name, e.ID)
				}
				for i := range want {
					if got[1+i] != want[i] {
						t.Errorf("%s/%s: AppendNoE with prefix [%d] = %v, want %v", tc.name, e.ID, i, got[1+i], want[i])
					}
				}
			}
		}
	}
}

// TestScratchProfitMatchesProfit pins the profit of a reused scratch (the
// selector's usage pattern: buffers left over from other ISEs and fabric
// states) to the profit of a fresh zero Scratch, bit-for-bit.
func TestScratchProfitMatchesProfit(t *testing.T) {
	k := testKernel()
	p := Params{E: 500, TF: 100, TB: 60}
	var s Scratch
	for round := 0; round < 3; round++ {
		for _, tc := range scratchCases() {
			for _, e := range k.ISEs {
				var fresh Scratch
				want := fresh.Profit(k, e, tc.fab, p, tc.m)
				got := s.Profit(k, e, tc.fab, p, tc.m)
				if got != want {
					t.Errorf("round %d %s/%s: reused Scratch.Profit = %v, fresh = %v", round, tc.name, e.ID, got, want)
				}
			}
		}
	}
}

// TestScratchProfitNoAllocs asserts the selector's hot path allocates
// nothing once the scratch buffers are warm.
func TestScratchProfitNoAllocs(t *testing.T) {
	k := testKernel()
	e := k.ISEs[0]
	p := Params{E: 500, TF: 100, TB: 60}
	var s Scratch
	s.Profit(k, e, nil, p, Multigrained) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		s.Profit(k, e, nil, p, Multigrained)
	})
	if allocs != 0 {
		t.Errorf("Scratch.Profit allocates %v per run, want 0", allocs)
	}
}
