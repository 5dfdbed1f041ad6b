package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/fault"
)

// TestZeroFaultIdenticalEveryPolicy is the repo-wide determinism guard
// demanded by the fault subsystem: for every policy, a run with a
// zero-rate fault scenario must produce a report byte-identical (JSON) to
// the plain fault-free run. This pins the property that threading the
// fault engine through arch, reconfig, core and sim changed nothing about
// existing results.
func TestZeroFaultIdenticalEveryPolicy(t *testing.T) {
	ctx := context.Background()
	cfg := arch.Config{NPRC: 2, NCG: 2}
	for _, p := range append([]Policy{PolicyRISC}, Fig8Policies...) {
		p := p
		t.Run(string(p), func(t *testing.T) {
			pc := cfg
			if p == PolicyRISC {
				pc = arch.Config{}
			}
			plain, err := RunPoint(ctx, expWorkload, pc, p)
			if err != nil {
				t.Fatal(err)
			}
			faulted, err := RunPointFaults(ctx, expWorkload, pc, p, 99, fault.Options{})
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(plain)
			b, _ := json.Marshal(faulted)
			if !bytes.Equal(a, b) {
				t.Errorf("zero-fault report differs from plain run:\n%s\n%s", a, b)
			}
		})
	}
}

func TestRunPointFaultsReproducible(t *testing.T) {
	ctx := context.Background()
	cfg := arch.Config{NPRC: 2, NCG: 2}
	fo := fault.Options{FailPRC: 1, FailCG: 1, Horizon: 1_000_000}
	a, err := RunPointFaults(ctx, expWorkload, cfg, PolicyMRTS, 5, fo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPointFaults(ctx, expWorkload, cfg, PolicyMRTS, 5, fo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed and options, different reports")
	}
	if a.Fault.IsZero() {
		t.Error("faulted run reports no fault activity")
	}
}

func TestRunPointFaultsValidates(t *testing.T) {
	// Events without a horizon must be rejected, not silently ignored.
	_, err := RunPointFaults(context.Background(), expWorkload,
		arch.Config{NCG: 1}, PolicyMRTS, 1, fault.Options{FailCG: 1})
	if err == nil {
		t.Fatal("horizon-less fault options accepted")
	}
}

func TestFaultsSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("degradation sweep is expensive")
	}
	ctx := context.Background()
	r, err := Faults(ctx, DirectPointEvaluator(expWorkload), FaultsConfig, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(FaultsFractions) {
		t.Fatalf("rows = %d, want %d", len(r.Rows), len(FaultsFractions))
	}

	// Graceful degradation: mRTS slows down monotonically with fabric
	// loss, never aborts, and lands on the RISC reference at 100% loss.
	for i, row := range r.Rows {
		mrts := row.Cycles[PolicyMRTS]
		if mrts == 0 {
			t.Fatalf("row %.0f%%: mRTS run aborted", row.Fraction*100)
		}
		if i > 0 && mrts < r.Rows[i-1].Cycles[PolicyMRTS] {
			t.Errorf("mRTS sped up under more faults: %d at %.0f%% < %d at %.0f%%",
				mrts, row.Fraction*100, r.Rows[i-1].Cycles[PolicyMRTS], r.Rows[i-1].Fraction*100)
		}
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Fraction != 0 || last.Fraction != 1 {
		t.Fatalf("fractions = %v..%v, want 0..1", first.Fraction, last.Fraction)
	}
	// At full loss the run converges to RISC mode: the failures land in
	// the first tenth of the reference time, so early frames still run
	// accelerated, but the bulk executes on the bare core — the total
	// approaches the RISC reference instead of aborting.
	if ratio := float64(last.Cycles[PolicyMRTS]) / float64(r.RISCCycles); ratio < 0.5 || ratio > 1.2 {
		t.Errorf("mRTS at 100%% loss = %.2fx RISC, want near 1 (within [0.5, 1.2])", ratio)
	}
	if last.RISCShare < 0.5 || last.RISCShare <= first.RISCShare {
		t.Errorf("RISC share at 100%% loss = %.2f (vs %.2f healthy), want dominant and growing",
			last.RISCShare, first.RISCShare)
	}
	if last.Cycles[PolicyMRTS] < 2*first.Cycles[PolicyMRTS] {
		t.Errorf("full fabric loss barely hurt: %d vs healthy %d",
			last.Cycles[PolicyMRTS], first.Cycles[PolicyMRTS])
	}
	// The run-time advantage: at partial loss mRTS beats the best static
	// baseline, which cannot re-select over the surviving fabric.
	var anyAdvantage bool
	for _, row := range r.Rows[1 : len(r.Rows)-1] {
		if row.AdvantageStatic > 1.05 {
			anyAdvantage = true
		}
		if row.Reselections == 0 {
			t.Errorf("row %.0f%%: mRTS never re-selected despite failures", row.Fraction*100)
		}
	}
	if !anyAdvantage {
		t.Error("mRTS never beat the static baselines at partial loss")
	}

	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "Graceful degradation") || !strings.Contains(out, "100%") {
		t.Errorf("render missing expected content:\n%s", out)
	}
}

func TestValidFig(t *testing.T) {
	for _, name := range FigNames {
		if !ValidFig(name) {
			t.Errorf("ValidFig(%q) = false for a listed figure", name)
		}
	}
	for _, name := range []string{"", "7", "fault", "ALL"} {
		if ValidFig(name) {
			t.Errorf("ValidFig(%q) = true", name)
		}
	}
}
