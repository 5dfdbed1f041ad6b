// Command mrts-sweep regenerates the paper's artifacts through the one
// figure driver (exp.RenderFig): the motivational case study (Figs. 1 and
// 2), the fabric-combination sweeps of the evaluation — Fig. 8
// (state-of-the-art comparison), Fig. 9 (heuristic vs. optimal selection)
// and Fig. 10 (speedup over RISC mode) — the Section 5.4 overhead
// analysis, the extension sweeps and the hardware-model calibration table.
//
// Usage:
//
//	mrts-sweep -fig 8            # one figure
//	mrts-sweep -fig all          # Figs. 8-10, overhead and sharing
//	mrts-sweep -fig 1 -chart     # Fig. 1's pif curves as an ASCII chart
//	mrts-sweep -fig 2            # Fig. 2 on the 16-frame workload
//	mrts-sweep -fig calibration  # hardware models vs. ISE library
//	mrts-sweep -fig 10 -frames 16 -maxprc 3 -maxcg 3
//	mrts-sweep -fig faults       # graceful-degradation sweep
//	mrts-sweep -fig tenants -tenants 4 -mix skewed  # hypervisor sweep (default K <= 8, uniform)
//	mrts-sweep -fig phase        # predictor comparison on dynamic control flow
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"mrts/internal/batch"
	"mrts/internal/exp"
	"mrts/internal/obs"
	"mrts/internal/sim"
	"mrts/internal/video"
	"mrts/internal/workload"
)

func main() {
	var (
		fig        = flag.String("fig", "all", "figure to regenerate: "+strings.Join(exp.FigNames, "|")+"|all")
		frames     = flag.Int("frames", 16, "video frames to encode")
		seed       = flag.Uint64("seed", 1, "synthetic video seed")
		maxPRC     = flag.Int("maxprc", exp.DefaultMaxPRC, "maximum PRC count of the sweep")
		maxCG      = flag.Int("maxcg", exp.DefaultMaxCG, "maximum CG-EDPE count of the sweep")
		chart      = flag.Bool("chart", false, "render ASCII charts instead of tables where available")
		faultSeed  = flag.Uint64("faultseed", 1, "fault-schedule seed of the faults sweep")
		tenants    = flag.Int("tenants", exp.MaxTenants, "largest tenant count of the tenant sweep")
		mix        = flag.String("mix", "uniform", "tenant mix of the tenant sweep: "+strings.Join(exp.TenantMixes, "|"))
		workers    = flag.Int("workers", 0, "sweep worker-pool size (default GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
		traceOut   = flag.String("trace", "", "write the decision traces of every point (JSONL, one run label per point, runs sorted by label) to this file; render with mrts-timeline (bypasses the batch engine: every point must actually run to be traced)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // materialise the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}

	// The batch engine deduplicates repeated points and shares selection
	// work across sweep points. It and the workload it runs on are built
	// only if the figure evaluates a point or reads the workload.
	in, engine := batch.LazyInput(exp.FigInput{
		Base: workload.Options{
			Frames: *frames,
			Seed:   *seed,
			Video:  video.Options{SceneCuts: []int{*frames / 3, 2 * *frames / 3}},
		},
		MaxPRC:    *maxPRC,
		MaxCG:     *maxCG,
		FaultSeed: *faultSeed,
		Tenants:   *tenants,
		Mix:       *mix,
		Chart:     *chart,
		Workloads: exp.DirectWorkloads(),
	})

	ctx := context.Background()
	if *workers != 0 {
		ctx = exp.WithWorkers(ctx, *workers)
	}

	// Tracing needs every point to really run, so traced points bypass
	// the batch engine.
	var traces *traceRuns
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if traces, err = newTraceRuns(in.Workload, f); err != nil {
			fatal(err)
		}
		in.Eval = traces.eval
	}

	start := time.Now()
	if err := exp.RenderFig(ctx, os.Stdout, *fig, in); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if traces != nil {
		if err := traces.flush(); err != nil {
			fatal(err)
		}
	}
	poolSize := *workers
	if poolSize <= 0 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	if *traceOut != "" {
		fmt.Fprintf(os.Stderr, "mrts-sweep: done in %.2fs (%d workers, direct evaluation)\n",
			elapsed.Seconds(), poolSize)
		return
	}
	var st batch.Stats
	if eng := engine(); eng != nil {
		st = eng.Stats()
	}
	fmt.Fprintf(os.Stderr,
		"mrts-sweep: %d points in %.2fs (%.1f points/sec, %d workers); %d point replays\n",
		st.Points, elapsed.Seconds(), float64(st.Points)/elapsed.Seconds(), poolSize, st.PointHits)
}

// traceRuns records the decision trace of every point evaluated on the
// base workload, each run labelled by exp.Point.Label. Points run concurrently (ParMap),
// so each gets its own in-memory recorder, and whole traces are appended
// to an unlinked spill file under the mutex as they complete. flush then
// copies the runs to the trace file in a fixed order, so the file does
// not depend on the worker count or on completion order, and memory
// holds no more than the runs in flight.
type traceRuns struct {
	workload   func(context.Context) (*workload.Result, error)
	out, spill *os.File

	mu   sync.Mutex
	end  int64
	runs []traceRun
}

// traceRun locates one run in the spill file. key is the run label, then
// the full point: equal keys are equal points, whose traces are equal.
type traceRun struct {
	key    string
	off, n int64
}

// newTraceRuns records into a spill file next to out.
func newTraceRuns(wl func(context.Context) (*workload.Result, error), out *os.File) (*traceRuns, error) {
	spill, err := os.CreateTemp(filepath.Dir(out.Name()), ".mrts-sweep-trace-*")
	if err != nil {
		// out may be a device or a pipe, whose directory takes no files.
		if spill, err = os.CreateTemp("", "mrts-sweep-trace-*"); err != nil {
			return nil, err
		}
	}
	// The open descriptor keeps the data readable; no exit path leaves
	// the spill file behind.
	_ = os.Remove(spill.Name())
	return &traceRuns{workload: wl, out: out, spill: spill}, nil
}

func (t *traceRuns) eval(ctx context.Context, pt exp.Point) (*sim.Report, error) {
	w, err := t.workload(ctx)
	if err != nil {
		return nil, err
	}
	rec := obs.New()
	rec.SetRun(pt.Label())
	rep, err := exp.RunPointObserved(ctx, w, pt, rec)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriterSize(t.spill, 64<<10)
	if err := rec.WriteJSONL(bw); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	end, err := t.spill.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	t.runs = append(t.runs, traceRun{key: pt.Label() + "\x00" + fmt.Sprintf("%+v", pt), off: t.end, n: end - t.end})
	t.end = end
	return rep, nil
}

// flush writes every recorded run to the trace file, ordered by key, and
// closes both files.
func (t *traceRuns) flush() error {
	defer t.spill.Close()
	sort.Slice(t.runs, func(i, j int) bool { return t.runs[i].key < t.runs[j].key })
	for _, r := range t.runs {
		if _, err := io.Copy(t.out, io.NewSectionReader(t.spill, r.off, r.n)); err != nil {
			t.out.Close()
			return err
		}
	}
	return t.out.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrts-sweep:", err)
	os.Exit(1)
}
