// Command mrts-report regenerates the complete evaluation in one run and
// emits a self-contained markdown report: every figure of the paper
// (Figs. 1, 2, 8, 9, 10), the Section 5.4 overhead analysis, the
// fabric-sharing sweep, the multi-tenant virtualization sweep, and the
// hardware-model calibration table. It is the tool behind EXPERIMENTS.md.
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
	"mrts/internal/selector"
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

	base := workload.Options{
		Frames: *frames,
		Seed:   *seed,
		Video:  video.Options{SceneCuts: []int{*frames / 3, 2 * *frames / 3}},
	}
	w, err := workload.Build(base)
	check(err)
	ctx := context.Background()

	fmt.Fprintf(out, "# mRTS evaluation report\n\n")
	fmt.Fprintf(out, "Workload: %d QCIF frames, seed %d, scene cuts at %d and %d; fabric sweep PRCs 0-%d x CG-EDPEs 0-%d.\n\n",
		*frames, *seed, *frames/3, 2**frames/3, *maxPRC, *maxCG)

	section := func(title string) { fmt.Fprintf(out, "\n## %s\n\n```\n", title) }
	endSection := func() { fmt.Fprintf(out, "```\n") }

	section("Fig. 1 — motivational case study (pif regions)")
	fig1 := exp.Fig1(6000, 200)
	fig1.RenderChart(out)
	fmt.Fprintf(out, "crossovers at %v executions\n", fig1.Crossovers)
	endSection()

	section("Fig. 2 — deblocking-filter execution behaviour")
	exp.Fig2(w).Render(out)
	endSection()

	// One batch engine serves every section, so points the figures share
	// simulate once and selections seed across them.
	eng := batch.New(w, 0)
	in := exp.FigInput{
		Base:    base,
		MaxPRC:  *maxPRC,
		MaxCG:   *maxCG,
		Tenants: *tenants,
		Mix:     *mix,
		Eval:    eng.PointEvaluator(),
		Workload: func(context.Context) (*workload.Result, *selector.Memo, error) {
			return w, eng.Memo(), nil
		},
		Workloads: exp.DirectWorkloads(),
	}
	for _, fig := range []struct{ title, name string }{
		{"Fig. 8 — comparison with state-of-the-art", "8"},
		{"Fig. 9 — selection heuristic vs. optimal algorithm", "9"},
		{"Fig. 10 — speedup over RISC mode", "10"},
		{"Section 5.4 — runtime-system overhead", "overhead"},
		{"Fabric sharing — run-time adaptation vs. recompiled oracle", "shared"},
		{"Virtualization — static partitions vs. migrating hypervisor", "tenants"},
	} {
		section(fig.title)
		check(exp.RenderFig(ctx, out, fig.name, in))
		endSection()
	}

	section("Hardware-model calibration")
	_, err = exp.Calibration(out)
	check(err)
	endSection()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrts-report:", err)
		os.Exit(1)
	}
}
