package service

import (
	"strings"
	"testing"

	"mrts/internal/service/api"
	"mrts/internal/workload"
)

func TestMetricsText(t *testing.T) {
	m := NewMetrics()
	m.Counter("x_total").Add(3)
	m.Gauge("depth").Set(-2)
	h := m.Histogram("lat_seconds")
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(999) // beyond the last bound -> +Inf bucket only

	var sb strings.Builder
	m.WriteText(&sb)
	text := sb.String()
	for _, want := range []string{
		"# TYPE x_total counter\nx_total 3\n",
		"# TYPE depth gauge\ndepth -2\n",
		"# TYPE lat_seconds histogram\n",
		`lat_seconds_bucket{le="0.001"} 1`,
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="+Inf"} 3`,
		"lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q:\n%s", want, text)
		}
	}
	// Same name, same instance; wrong type panics.
	if m.Counter("x_total").Value() != 3 {
		t.Error("re-registration returned a different counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type clash did not panic")
		}
	}()
	m.Gauge("x_total")
}

func TestWorkloadKeyUsesCanonicalOptions(t *testing.T) {
	if WorkloadKey(workload.Options{}) != WorkloadKey(workload.Options{}.Canonical()) {
		t.Error("workload key not canonical")
	}
	spec := api.WorkloadSpec{Frames: 2, Seed: 1}
	if WorkloadKey(spec.Options()) == WorkloadKey(workload.Options{}) {
		t.Error("distinct workloads share a key")
	}
}
