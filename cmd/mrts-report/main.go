// Command mrts-report regenerates the complete evaluation in one run and
// emits a self-contained markdown report: every figure of the paper
// (Figs. 1, 2, 8, 9, 10), the Section 5.4 overhead analysis, the
// fabric-sharing sweep, the multi-tenant virtualization sweep, and the
// hardware-model calibration table. Each section is what
// `mrts-sweep -fig NAME` renders for the same inputs (Fig. 1 as its
// chart). It is the tool behind EXPERIMENTS.md.
//
//	mrts-report > report.md
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mrts/internal/batch"
	"mrts/internal/exp"
	"mrts/internal/video"
	"mrts/internal/workload"
)

func main() {
	var (
		frames  = flag.Int("frames", 16, "video frames to encode")
		seed    = flag.Uint64("seed", 1, "synthetic video seed")
		maxPRC  = flag.Int("maxprc", exp.DefaultMaxPRC, "maximum PRC count of the sweeps")
		maxCG   = flag.Int("maxcg", exp.DefaultMaxCG, "maximum CG-EDPE count of the sweeps")
		tenants = flag.Int("tenants", exp.MaxTenants, "largest tenant count of the virtualization sweep")
		mix     = flag.String("mix", "skewed", "tenant mix of the virtualization sweep: uniform|skewed|priority")
	)
	flag.Parse()
	out := os.Stdout

	// One batch engine serves every section, so points the figures share
	// simulate once and selections seed across them.
	in, _ := batch.LazyInput(exp.FigInput{
		Base: workload.Options{
			Frames: *frames,
			Seed:   *seed,
			Video:  video.Options{SceneCuts: []int{*frames / 3, 2 * *frames / 3}},
		},
		MaxPRC:    *maxPRC,
		MaxCG:     *maxCG,
		Tenants:   *tenants,
		Mix:       *mix,
		Workloads: exp.DirectWorkloads(),
	})

	fmt.Fprintf(out, "# mRTS evaluation report\n\n")
	fmt.Fprintf(out, "Workload: %d QCIF frames, seed %d, scene cuts at %d and %d; fabric sweep PRCs 0-%d x CG-EDPEs 0-%d.\n\n",
		*frames, *seed, *frames/3, 2**frames/3, *maxPRC, *maxCG)

	for _, fig := range []struct{ title, name string }{
		{"Fig. 1 — motivational case study (pif regions)", "1"},
		{"Fig. 2 — deblocking-filter execution behaviour", "2"},
		{"Fig. 8 — comparison with state-of-the-art", "8"},
		{"Fig. 9 — selection heuristic vs. optimal algorithm", "9"},
		{"Fig. 10 — speedup over RISC mode", "10"},
		{"Section 5.4 — runtime-system overhead", "overhead"},
		{"Fabric sharing — run-time adaptation vs. recompiled oracle", "shared"},
		{"Virtualization — static partitions vs. migrating hypervisor", "tenants"},
		{"Hardware-model calibration", "calibration"},
	} {
		fmt.Fprintf(out, "\n## %s\n\n```\n", fig.title)
		in.Chart = fig.name == "1" // Fig. 1's regions read best as curves
		if err := exp.RenderFig(context.Background(), out, fig.name, in); err != nil {
			fmt.Fprintln(os.Stderr, "mrts-report:", err)
			os.Exit(1)
		}
		fmt.Fprintf(out, "```\n")
	}
}
