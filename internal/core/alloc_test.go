package core_test

import (
	"testing"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/mpu"
	"mrts/internal/workload"
)

// TestTriggerPathAllocFree pins the trigger path's allocations: once warm,
// a trigger instruction, one execution of each of its kernels and the
// block end allocate nothing.
func TestTriggerPathAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled scratch at random")
	}
	w := workload.Small()
	blk := w.App.Block("enc")
	for _, phase := range []string{"I", "P"} {
		triggers := w.Trace.ProfileFor("enc", phase)
		obsv := make([]mpu.Observation, len(triggers))
		for i, tr := range triggers {
			obsv[i] = mpu.Observation{Kernel: tr.Kernel, E: tr.E + int64(i), TF: tr.TF, TB: tr.TB}
		}
		m := core.MustNew(arch.Config{NPRC: 2, NCG: 2}, core.Options{ChargeOverhead: true})
		const settled = 50_000_000
		now := arch.Cycles(0)
		cycle := func() {
			if _, err := m.OnTrigger(blk, phase, triggers, now); err != nil {
				t.Fatal(err)
			}
			for _, tr := range triggers {
				m.Execute(blk.Kernel(tr.Kernel), now+1)
			}
			m.OnBlockEnd(blk, phase, triggers, obsv, now+2)
			now += settled
		}
		for i := 0; i < 20; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("phase %s: %.1f allocs per trigger cycle, want 0", phase, allocs)
		}
	}
}
