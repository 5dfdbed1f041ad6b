package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func smokeConfig(t *testing.T, wl string, traced bool) runConfig {
	return runConfig{
		workload: wl, seed: 1, keySeed: 1, seconds: 0.3, traced: traced, out: t.TempDir(),
		figs: referenceDigests,
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each prints every metric of BENCHMARK.json with its unit and ends
// with a correct JSON result.
func TestSmoke(t *testing.T) {
	bj := loadBenchmark(t)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, wl := range []string{"figs", "phased", "serve", "cluster3"} {
		for _, traced := range []bool{false, true} {
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			cfg := smokeConfig(t, wl, traced)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl, traced, err)
			}
			var out bytes.Buffer
			if err := res.print(&out, cfg); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", wl, traced, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", wl, traced, last.Correct, last.Attempted, last.Failed, out.String())
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl, traced, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %s", wl, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), "metric "+m.Name+" ") {
					t.Errorf("%s traced=%v: metric %s not printed by name", wl, traced, m.Name)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptDigestFails makes sure the output check has teeth: with one
// stored reference digest altered, every repetition on that input fails.
func TestCorruptDigestFails(t *testing.T) {
	cfg := smokeConfig(t, "figs", false)
	cfg.figs = map[string]string{}
	for k, v := range referenceDigests {
		cfg.figs[k] = v
	}
	key := fmt.Sprint(figsPool(cfg.seed)[0].Seed)
	if _, ok := cfg.figs[key]; !ok {
		t.Fatalf("no stored digest for input seed %s", key)
	}
	cfg.figs[key] = strings.Repeat("0", 64)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed == 0 {
		t.Fatalf("corrupted reference digest for seed %s went unnoticed", key)
	}
}
