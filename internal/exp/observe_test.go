package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/fault"
	"mrts/internal/obs"
)

// TestObserverByteIdenticalEveryPolicy is the determinism guard of the
// observability layer: for every Fig. 8 policy (plus RISC), a full
// simulation with a decision-trace recorder attached must produce a report
// byte-identical (JSON) to an unobserved run. The recorder is a tap — it
// may never feed back into the simulation.
func TestObserverByteIdenticalEveryPolicy(t *testing.T) {
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
			rec := obs.New()
			observed, err := RunPointObserved(ctx, expWorkload, Point{Config: pc, Policy: p}, rec)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(plain)
			b, _ := json.Marshal(observed)
			if !bytes.Equal(a, b) {
				t.Errorf("observed report differs from unobserved:\n%s\n%s", a, b)
			}
			if rec.Len() == 0 {
				t.Error("recorder captured nothing — the observer was never installed")
			}
		})
	}
}

// TestObserverByteIdenticalUnderFaults extends the guard to a faulted run,
// where the trace additionally carries fault deliveries, evictions and
// re-selections — the densest instrumentation paths.
func TestObserverByteIdenticalUnderFaults(t *testing.T) {
	cfg := arch.Config{NPRC: 2, NCG: 2}
	fo := fault.Options{FailPRC: 1, FailCG: 1, Horizon: 1_000_000}
	const seed = 7

	plain, err := RunPointFaults(context.Background(), expWorkload, cfg, PolicyMRTS, seed, fo)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	observed, err := RunPointObserved(context.Background(), expWorkload, Point{Config: cfg, Policy: PolicyMRTS, Seed: seed, Faults: fo}, rec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(observed)
	if !bytes.Equal(a, b) {
		t.Errorf("faulted observed report differs from unobserved:\n%s\n%s", a, b)
	}
	if observed.Fault.IsZero() {
		t.Error("fault scenario injected nothing; the guard did not exercise the fault paths")
	}
	var faults int
	for _, ev := range rec.Events() {
		if ev.Source == obs.SourceSim && ev.Kind == obs.KindFault {
			faults++
		}
	}
	if faults == 0 {
		t.Error("no fault deliveries in the trace of a faulted run")
	}
}

// TestObserverTimestampsMonotonic pins the Event.Cycle contract: events are
// stamped with the simulation clock at record time, so within one run the
// trace is non-decreasing in Cycle — the property mrts-timeline and any
// streaming consumer rely on. Config spans carry their completion in Ready,
// never by stamping a future Cycle.
func TestObserverTimestampsMonotonic(t *testing.T) {
	cfg := arch.Config{NPRC: 2, NCG: 1}
	fo := fault.Options{FailPRC: 1, Horizon: 1_000_000}
	rec := obs.New()
	rec.SetRun("mono")
	if _, err := RunPointObserved(context.Background(), expWorkload, Point{Config: cfg, Policy: PolicyMRTS, Seed: 3, Faults: fo}, rec); err != nil {
		t.Fatal(err)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("empty trace")
	}
	last := map[string]arch.Cycles{}
	for i, ev := range evs {
		if ev.Cycle < last[ev.Run] {
			t.Fatalf("event %d (%s/%s) at cycle %d after cycle %d: trace not monotonic",
				i, ev.Source, ev.Kind, ev.Cycle, last[ev.Run])
		}
		last[ev.Run] = ev.Cycle
	}
}

// TestObservedTraceRoundTrips drives a recorded run through the JSONL
// serialisation and back — the pipeline between the -trace flags and
// cmd/mrts-timeline.
func TestObservedTraceRoundTrips(t *testing.T) {
	rec := obs.New()
	rec.SetRun("mrts/1x1")
	if _, err := RunPointObserved(context.Background(), expWorkload, Point{Config: arch.Config{NPRC: 1, NCG: 1}, Policy: PolicyMRTS}, rec); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadAll(strings.NewReader(rec.JSONL()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != rec.Len() {
		t.Fatalf("round trip lost events: %d read, %d recorded", len(got), rec.Len())
	}
	// Spot-check the structure the timeline renderer keys on.
	var haveRunMarker, haveConfig, haveDispatch bool
	for _, ev := range got {
		if ev.Run != "mrts/1x1" {
			t.Fatalf("event lost its run label: %+v", ev)
		}
		switch {
		case ev.Source == obs.SourceSim && ev.Kind == obs.KindRun:
			haveRunMarker = true
		case ev.Source == obs.SourceReconfig && ev.Kind == obs.KindConfig:
			haveConfig = true
			if ev.Path == "" || ev.Ready < ev.Cycle || ev.Latency <= 0 {
				t.Fatalf("config span malformed: %+v", ev)
			}
		case ev.Source == obs.SourceECU && ev.Kind == obs.KindDispatch:
			haveDispatch = true
			if ev.Kernel == "" || ev.Mode == "" {
				t.Fatalf("dispatch event malformed: %+v", ev)
			}
		}
	}
	if !haveRunMarker || !haveConfig || !haveDispatch {
		t.Errorf("trace misses expected layers: run=%v config=%v dispatch=%v",
			haveRunMarker, haveConfig, haveDispatch)
	}
}

// TestPointLabel pins the decision-trace run labels: plain points keep the
// policy/PRCsxCGs form, a fault scenario (or a seed) adds /failP+C and a
// reservation adds /rsvP+C, so reserved runs stay distinct from the plain
// run on the same fabric.
func TestPointLabel(t *testing.T) {
	cfg := arch.Config{NPRC: 4, NCG: 3}
	for _, tc := range []struct {
		pt   Point
		want string
	}{
		{Point{Config: cfg, Policy: PolicyMRTS}, "mRTS/4x3"},
		{Point{Policy: PolicyRISC}, "RISC-mode/0x0"},
		{Point{Config: cfg, Policy: PolicyOffline, Seed: 1}, "Offline-optimal/4x3/fail0+0"},
		{Point{Config: cfg, Policy: PolicyMRTS, Seed: 1, Faults: fault.Options{FailPRC: 2, FailCG: 1}}, "mRTS/4x3/fail2+1"},
		{Point{Config: cfg, Policy: PolicyMRTS, Reserve: arch.Config{NCG: 2}}, "mRTS/4x3/rsv0+2"},
		{Point{Config: cfg, Policy: PolicyMRTS, Faults: fault.Options{FailPRC: 1}, Reserve: arch.Config{NPRC: 1}}, "mRTS/4x3/fail1+0/rsv1+0"},
	} {
		if got := tc.pt.Label(); got != tc.want {
			t.Errorf("%+v: label %q, want %q", tc.pt, got, tc.want)
		}
	}
}
