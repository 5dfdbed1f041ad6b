// Multitask demonstrates run-time varying fabric budgets (paper Section 1:
// the reconfigurable fabric is shared among various tasks). The example
// steps the simulator one block iteration at a time, so it can reserve
// fabric for a competing task between two iterations in the middle of the
// run and show how the next ISE selection adapts to the shrunken budget.
//
//	go run ./examples/multitask
package main

import (
	"fmt"
	"log"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/sim"
	"mrts/internal/video"
	"mrts/internal/workload"
)

func main() {
	w, err := workload.Build(workload.Options{
		Frames: 6,
		Video:  video.Options{SceneCuts: nil},
	})
	if err != nil {
		log.Fatal(err)
	}

	cfg := arch.Config{NPRC: 2, NCG: 3}
	rts, err := core.New(cfg, core.Options{ChargeOverhead: true})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fabric budget: %d PRC / %d CG-EDPE\n", cfg.NPRC, cfg.NCG)
	fmt.Println("a competing task reserves 1 PRC + 2 CG-EDPEs from frame 3 on")

	s, err := sim.NewStepper(w.App, w.Trace, rts, sim.Options{})
	if err != nil {
		log.Fatal(err)
	}
	frame := -1
	for i := 0; !s.Done(); i++ {
		it := &w.Trace.Iterations[i]
		if it.Seq != frame {
			frame = it.Seq
			if frame == 3 {
				// The other task arrives between two iterations: shrink
				// our budget. Reservations cannot displace pinned data
				// paths, so release the current selection first.
				rts.Controller().EvictAll()
				if err := rts.Controller().Reserve(1, 2); err != nil {
					log.Fatal(err)
				}
				fmt.Println("--- competing task arrived: budget now 1 PRC / 1 CG ---")
			}
		}
		if err := s.Step(); err != nil {
			log.Fatal(err)
		}

		// The selection the iteration's trigger instruction made.
		if it.Block == "me" {
			var picks []string
			for _, k := range w.App.Block(it.Block).Kernels {
				if e := rts.Selected(k.ID); e != nil {
					picks = append(picks, fmt.Sprintf("%s(%s)", e.ID, e.Grain()))
				}
			}
			fmt.Printf("frame %d: motion-estimation selection %v\n", it.Seq, picks)
		}
	}
	t := s.Finish().TotalCycles
	fmt.Printf("total: %.2f Mcycles for 6 frames under a varying budget\n", t.MCycles())
}
