package trace_test

import (
	"runtime"
	"testing"

	"mrts/internal/trace"
	"mrts/internal/workload"
)

// TestMergedLoadsAllocation bounds what the merged schedules of the seed-1
// default workload (48 iterations, 135 060 executions) cost to build and
// keep: one byte per execution, the prefix index (K/8 bytes per
// execution) and the per-kernel tables.
func TestMergedLoadsAllocation(t *testing.T) {
	w, err := workload.Build(workload.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh trace over the same iterations: Build's schedules may
	// already be merged.
	tr := &trace.Trace{Iterations: w.Trace.Iterations}
	var execs int64
	for i := range tr.Iterations {
		execs += tr.Iterations[i].TotalExecutions()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range tr.Iterations {
		tr.MergedLoads(i)
	}
	runtime.ReadMemStats(&after)
	const limit = 512 << 10
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d iterations, %d executions: %d bytes", len(tr.Iterations), execs, got)
	if got >= limit {
		t.Errorf("merging %d iterations allocated %d bytes, want under %d", len(tr.Iterations), got, limit)
	}
}
