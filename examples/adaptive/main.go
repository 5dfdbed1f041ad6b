// Adaptive demonstrates the Monitoring & Prediction Unit: the trigger
// instructions embedded in the binary carry forecasts from an offline
// profiling run on *different* content, so at deployment they are stale;
// the MPU's error back-propagation pulls them towards the observed
// behaviour, frame by frame, and re-adapts after every scene cut.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/h264"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/sim"
	"mrts/internal/video"
	"mrts/internal/workload"
)

func main() {
	// Deployment content with two hard scene cuts; the profile forecasts
	// come from a separate generic profiling sequence (ProfileSeed).
	w, err := workload.Build(workload.Options{
		Frames: 12,
		Seed:   5,
		Video:  video.Options{SceneCuts: []int{4, 8}},
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := arch.Config{NPRC: 2, NCG: 2}
	rts, err := core.New(cfg, core.Options{ChargeOverhead: true})
	if err != nil {
		log.Fatal(err)
	}

	// Step the simulator one block iteration at a time so we can watch
	// the forecast of the deblocking filter kernel before each trigger
	// instruction.
	s, err := sim.NewStepper(w.App, w.Trace, rts, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	filt := ise.KernelID(h264.KernelFilt)
	fmt.Println("deblocking filter: profile forecast vs MPU forecast vs actual executions")
	fmt.Printf("%6s %6s %10s %10s %10s %10s\n", "frame", "phase", "profile", "forecast", "actual", "error")

	for i := 0; !s.Done(); i++ {
		it := &w.Trace.Iterations[i]
		if it.Block == "dbf" {
			var prof, fore ise.Trigger
			for _, tr := range w.Trace.ProfileFor(it.Block, it.Phase) {
				if tr.Kernel == filt {
					prof = tr
					fore = rts.Predictor().Forecast("dbf#"+it.Phase, tr)
				}
			}
			var actual int64
			for _, l := range it.Loads {
				if l.Kernel == filt {
					actual = l.E
				}
			}
			errPct := 100 * float64(fore.E-actual) / float64(actual)
			fmt.Printf("%6d %6s %10d %10d %10d %+9.1f%%\n",
				it.Seq, it.Phase, prof.E, fore.E, actual, errPct)
		}
		if err := s.Step(); err != nil {
			log.Fatal(err)
		}
	}
	withMPU := s.Finish()

	// End-to-end comparison against static forecasts.
	ref, err := sim.RunRISC(w.App, w.Trace)
	if err != nil {
		log.Fatal(err)
	}
	static, err := core.New(cfg, core.Options{
		ChargeOverhead: true,
		MPU:            []mpu.Option{mpu.Disabled()},
		Name:           "mRTS (static forecasts)",
	})
	if err != nil {
		log.Fatal(err)
	}
	withoutMPU, err := sim.Run(w.App, w.Trace, static)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nend to end (%d PRC / %d CG): MPU %.2f Mcycles (%.2fx) vs static forecasts %.2f Mcycles (%.2fx)\n",
		cfg.NPRC, cfg.NCG,
		withMPU.TotalCycles.MCycles(), withMPU.Speedup(ref),
		withoutMPU.TotalCycles.MCycles(), withoutMPU.Speedup(ref))
	fmt.Println("(with phase-aware trigger instructions the static forecasts are already")
	fmt.Println(" close; the MPU's value is the shrinking forecast error above)")
}
