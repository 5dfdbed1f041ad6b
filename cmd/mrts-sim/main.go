// Command mrts-sim runs one simulation: the H.264 encoder workload on a
// multi-grained reconfigurable processor with a chosen fabric budget and
// runtime policy, and prints the cycle accounting.
//
// Usage:
//
//	mrts-sim -prc 2 -cg 1 -policy mrts -frames 16
//	mrts-sim -phased -divergence 0.75 -predictor phase   # dynamic control flow
//
// Policies: mrts, rispp, morpheus, offline, optimal, risc.
// Predictors (mrts only): backprop (default), phase, decay.
package main

import (
	"flag"
	"fmt"
	"os"

	"mrts/internal/arch"
	"mrts/internal/ecu"
	"mrts/internal/exp"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/service/api"
	"mrts/internal/sim"
	"mrts/internal/video"
	"mrts/internal/workload"
)

func main() {
	var (
		prc       = flag.Int("prc", 2, "number of PRCs (fine-grained fabric)")
		cgN       = flag.Int("cg", 1, "number of CG-EDPEs (coarse-grained fabric)")
		policy    = flag.String("policy", "mrts", "runtime policy: mrts|rispp|morpheus|offline|optimal|risc")
		frames    = flag.Int("frames", 16, "video frames to encode")
		seed      = flag.Uint64("seed", 1, "synthetic video seed")
		sceneCut  = flag.Int("scenecut", 8, "frame of the scene cut (0 = none)")
		verbose   = flag.Bool("v", false, "print per-block and reconfiguration details")
		jsonOut   = flag.Bool("json", false, "emit the report as JSON (for scripting)")
		outFile   = flag.String("o", "", "write the JSON report to this file (in addition to stdout output)")
		traceOut  = flag.String("trace", "", "write the decision trace (JSONL) to this file; render it with mrts-timeline")
		predictor = flag.String("predictor", "", "MPU predictor kind for the mrts policy: backprop|phase|decay (default backprop)")
		phased    = flag.Bool("phased", false, "run a dynamic control-flow workload instead of the encoder (see -divergence)")
		diverg    = flag.Float64("divergence", 0.5, "control-flow divergence of the -phased workload in [0, 1]")
	)
	flag.Parse()

	opts := workload.Options{Frames: *frames, Seed: *seed}
	if *phased {
		d := *diverg
		if d == 0 {
			d = -1 // explicit zero, not "use the default"
		}
		opts = workload.Options{Seed: *seed, Phased: &workload.PhasedOptions{Divergence: d}}
	} else if *sceneCut > 0 {
		opts.Video = video.Options{SceneCuts: []int{*sceneCut}}
	}
	w, err := workload.Build(opts)
	if err != nil {
		fatal(err)
	}

	cfg := arch.Config{NPRC: *prc, NCG: *cgN}
	pol, err := exp.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	kind, err := mpu.ParseKind(*predictor)
	if err != nil {
		fatal(err)
	}
	if *predictor != "" && pol != exp.PolicyMRTS {
		fatal(fmt.Errorf("-predictor only applies to the mrts policy, not %q", pol))
	}

	pt := exp.Point{Config: cfg, Policy: pol}
	var rec *obs.Recorder
	if *traceOut != "" {
		rec = obs.New()
		rec.SetRun(pt.Label())
	}
	var rep *sim.Report
	if *predictor != "" {
		rep, err = exp.RunPointPredictor(nil, w, cfg, kind, rec)
	} else {
		rep, err = exp.RunPointObserved(nil, w, pt, rec)
	}
	if err != nil {
		fatal(err)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mrts-sim: wrote %d trace events to %s\n", rec.Len(), *traceOut)
	}
	ref, err := exp.RunPoint(nil, w, arch.Config{}, exp.PolicyRISC)
	if err != nil {
		fatal(err)
	}

	if *outFile != "" || *jsonOut {
		r := api.NewReport(rep, ref)
		b, err := api.MarshalIndentReport(&r)
		if err != nil {
			fatal(err)
		}
		if *outFile != "" {
			if err := os.WriteFile(*outFile, b, 0o644); err != nil {
				fatal(err)
			}
		}
		if *jsonOut {
			os.Stdout.Write(b)
			return
		}
	}

	fmt.Printf("policy        %s\n", rep.Policy)
	fmt.Printf("fabric        %d PRC / %d CG-EDPE\n", cfg.NPRC, cfg.NCG)
	fmt.Printf("frames        %d  (iterations: %d, kernel executions: %d)\n",
		*frames, rep.Iterations, rep.Executions)
	fmt.Printf("total         %.2f Mcycles (%.1f ms @400MHz)\n",
		rep.TotalCycles.MCycles(), rep.TotalCycles.Millis())
	fmt.Printf("speedup       %.2fx vs RISC-mode (%.2f Mcycles)\n",
		rep.Speedup(ref), ref.TotalCycles.MCycles())
	fmt.Printf("exec modes    RISC %.1f%%  monoCG %.1f%%  intermediate %.1f%%  full-ISE %.1f%%\n",
		100*rep.ModeShare(ecu.RISC), 100*rep.ModeShare(ecu.MonoCG),
		100*rep.ModeShare(ecu.Intermediate), 100*rep.ModeShare(ecu.Full))
	fmt.Printf("overhead      %.3f Mcycles visible (%.2f%% of total)\n",
		rep.OverheadCycles.MCycles(), 100*float64(rep.OverheadCycles)/float64(rep.TotalCycles))
	if !rep.Forecast.Total.IsZero() {
		fmt.Printf("forecast      %s predictor: mean |err| %.1f executions over %d scored observations\n",
			rep.Forecast.Predictor, rep.Forecast.Total.MeanAbsE(), rep.Forecast.Total.Samples)
	}

	if *verbose {
		fmt.Printf("software      %.2f Mcycles, kernels %.2f Mcycles\n",
			rep.SoftwareCycles.MCycles(), rep.KernelCycles.MCycles())
		for _, fb := range []string{"me", "enc", "dbf"} {
			if c, ok := rep.BlockCycles[fb]; ok {
				fmt.Printf("block %-6s  %.2f Mcycles over %d iterations\n",
					fb, c.MCycles(), rep.BlockIterations[fb])
			}
		}
		rc := rep.Reconfig
		fmt.Printf("reconfig      FG %d (%.2f Mcycles busy), CG %d (%.3f Mcycles busy), evictions %d, monoCG loads %d\n",
			rc.FGReconfigs, rc.FGBusyCycles.MCycles(), rc.CGReconfigs, rc.CGBusyCycles.MCycles(),
			rc.Evictions, rc.MonoCGLoads)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrts-sim:", err)
	os.Exit(1)
}
