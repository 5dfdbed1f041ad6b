// Command mrts-submit runs simulations against a shared mrts-serve
// daemon instead of simulating in-process. A figure submission prints
// byte-identical output to the offline cmd/mrts-sweep for the same
// parameters — but repeated submissions are served from the daemon's
// report memo without re-simulation.
//
// Usage:
//
//	mrts-submit -fig 8                    # Fig. 8 via the daemon
//	mrts-submit -fig all                  # the full evaluation
//	mrts-submit -prc 2 -cg 1 -policy mrts # one simulation, JSON report
//	mrts-submit -stream -maxprc 2 -maxcg 2 # streamed per-point sweep
//	mrts-submit -metrics                  # the daemon's /metrics page
//
// Fault scenarios attach to single simulations and sweeps (-failprc,
// -failcg, -flapprc, -flapcg, -corruptfg, -corruptcg, -faultseed), and
// `-fig faults` regenerates the graceful-degradation sweep. Transient
// submission failures (daemon restarting, connection refused, HTTP
// 429/502/503/504) are retried up to -retries attempts with capped
// exponential backoff; when the daemon answers with a Retry-After hint
// (rate limited, queue full, draining) the client sleeps for the hinted
// duration instead, capped at the policy's maximum delay.
//
// `-fig tenants` regenerates the multi-tenant hypervisor sweep; -tenants
// bounds the largest tenant count and -mix picks the demand mix
// (uniform, skewed, or priority).
//
// The workload flags (-frames, -seed) and sweep bounds (-maxprc, -maxcg)
// default to the same values as cmd/mrts-sweep.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mrts/internal/exp"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
)

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8341", "mrts-serve base URL, or a comma list of cluster member URLs; calls fail over between members and retry transient errors")
		fig     = flag.String("fig", "", "figure to regenerate: "+strings.Join(exp.FigNames, "|")+"|all (empty = single simulation)")
		prc     = flag.Int("prc", 2, "number of PRCs (single simulation)")
		cgN     = flag.Int("cg", 1, "number of CG-EDPEs (single simulation)")
		policy  = flag.String("policy", "mrts", "runtime policy (single simulation)")
		frames  = flag.Int("frames", 16, "video frames to encode")
		seed    = flag.Uint64("seed", 1, "synthetic video seed")
		maxPRC  = flag.Int("maxprc", exp.DefaultMaxPRC, "maximum PRC count of sweeps")
		maxCG   = flag.Int("maxcg", exp.DefaultMaxCG, "maximum CG-EDPE count of sweeps")
		stream  = flag.Bool("stream", false, "stream an mRTS point sweep over /v1/sweep instead of submitting a job")
		timeout = flag.Duration("timeout", 15*time.Minute, "client-side wait timeout")
		poll    = flag.Duration("poll", 50*time.Millisecond, "job poll interval")
		outFile = flag.String("o", "", "also write the result (text or JSON report) to this file")
		metrics = flag.Bool("metrics", false, "print the daemon's /metrics page and exit")
		cancel  = flag.String("cancel", "", "cancel the job with this ID and exit")
		nowait  = flag.Bool("nowait", false, "submit without waiting; print the job ID")
		retries = flag.Int("retries", 3, "attempts per API call for transient daemon errors (1 = no retry)")
		hedge   = flag.Duration("hedge", 0, "hedged submission: race the next cluster member when the preferred one has not answered within this delay (0 disables; needs a comma list in -addr)")

		failPRC   = flag.Int("failprc", 0, "fault scenario: PRCs failing permanently")
		failCG    = flag.Int("failcg", 0, "fault scenario: CG-EDPEs failing permanently")
		flapPRC   = flag.Int("flapprc", 0, "fault scenario: PRCs failing transiently and recovering")
		flapCG    = flag.Int("flapcg", 0, "fault scenario: CG-EDPEs failing transiently and recovering")
		corruptFG = flag.Int("corruptfg", 0, "fault scenario: corrupted FG bitstream transfers")
		corruptCG = flag.Int("corruptcg", 0, "fault scenario: corrupted CG configuration transfers")
		faultSeed = flag.Uint64("faultseed", 1, "fault-schedule seed")
		horizonM  = flag.Float64("horizon", 0, "fault horizon in Mcycles (0 = a tenth of the RISC reference run)")

		tenants = flag.Int("tenants", 0, "largest tenant count of the tenant sweep (-fig tenants; 0 = daemon default)")
		mix     = flag.String("mix", "", "tenant mix of the tenant sweep: uniform|skewed|priority (empty = uniform)")
	)
	flag.Parse()

	ctx, stop := context.WithTimeout(context.Background(), *timeout)
	defer stop()
	c := newClient(*addr, *retries, *hedge)

	faults := &api.FaultSpec{
		Seed: *faultSeed, FailPRC: *failPRC, FailCG: *failCG,
		FlapPRC: *flapPRC, FlapCG: *flapCG,
		CorruptFG: *corruptFG, CorruptCG: *corruptCG,
		HorizonMCycles: *horizonM,
	}
	if *failPRC+*failCG+*flapPRC+*flapCG+*corruptFG+*corruptCG == 0 && *fig != "faults" {
		faults = nil // benign scenario: submit the plain spec
	}

	switch {
	case *metrics:
		text, err := c.Metrics(ctx)
		fatalIf(err)
		fmt.Print(text)
		return
	case *cancel != "":
		st, err := c.Cancel(ctx, *cancel)
		fatalIf(err)
		fmt.Printf("job %s: %s\n", st.ID, st.State)
		return
	}

	// The same workload cmd/mrts-sweep builds by default: scene cuts at
	// one and two thirds of the sequence.
	wl := api.WorkloadSpec{
		Frames:    *frames,
		Seed:      *seed,
		SceneCuts: []int{*frames / 3, 2 * *frames / 3},
	}

	if *stream {
		streamSweep(ctx, c, wl, faults, *maxPRC, *maxCG)
		return
	}

	var out string
	switch *fig {
	case "":
		spec := api.JobSpec{Type: api.JobSim, Workload: wl, PRC: *prc, CG: *cgN, Policy: *policy, Faults: faults}
		st := runJob(ctx, c, spec, *poll, *nowait)
		if st == nil {
			return
		}
		b, err := marshalReport(st)
		fatalIf(err)
		out = string(b)
	case "all":
		for i, name := range exp.FigAll {
			if i > 0 {
				out += "\n"
			}
			st := runJob(ctx, c, figSpec(name, wl, nil, *maxPRC, *maxCG), *poll, *nowait)
			if st == nil {
				return
			}
			out += st.Result.Text
		}
	default:
		spec := figSpec(*fig, wl, faults, *maxPRC, *maxCG)
		if *fig == "tenants" {
			// Tenant bounds only apply to the tenant sweep; the daemon
			// rejects them on any other figure.
			spec.Tenants = *tenants
			spec.Mix = *mix
		}
		st := runJob(ctx, c, spec, *poll, *nowait)
		if st == nil {
			return
		}
		out = st.Result.Text
	}
	fmt.Print(out)
	if *outFile != "" {
		fatalIf(os.WriteFile(*outFile, []byte(out), 0o644))
	}
}

// newClient builds the client for one daemon address or a comma list
// of cluster member addresses (a single address is a one-member
// cluster). A positive hedge makes cluster submissions race the next
// member instead of waiting out a timeout on the preferred one (same
// Idempotency-Key, so at most one job is created however many attempts
// land).
func newClient(addr string, retries int, hedge time.Duration) *client.Client {
	addrs := strings.Split(addr, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	c := client.NewCluster(addrs)
	c.Retry = client.RetryPolicy{MaxAttempts: retries}
	c.Hedge = hedge
	return c
}

func figSpec(name string, wl api.WorkloadSpec, faults *api.FaultSpec, maxPRC, maxCG int) api.JobSpec {
	return api.JobSpec{Type: api.JobFig, Workload: wl, Fig: name, MaxPRC: maxPRC, MaxCG: maxCG, Faults: faults}
}

// runJob submits and (unless nowait) waits; a nil return means the ID was
// printed and the caller should stop.
func runJob(ctx context.Context, c *client.Client, spec api.JobSpec, poll time.Duration, nowait bool) *api.JobStatus {
	id, err := c.Submit(ctx, spec)
	fatalIf(err)
	if nowait {
		fmt.Println(id)
		return nil
	}
	st, err := c.Wait(ctx, id, poll)
	fatalIf(err)
	if st.State != api.StateDone {
		fatalIf(fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error))
	}
	fmt.Fprintf(os.Stderr, "mrts-submit: job %s done in %.3fs (cache: %d hits, %d misses)\n",
		st.ID, st.Result.ElapsedSec, st.Result.CacheHits, st.Result.CacheMisses)
	return st
}

// streamSweep runs the mRTS policy over the full fabric sweep through the
// streaming endpoint, printing each point as it completes. A fault
// scenario, when given, applies to every point.
func streamSweep(ctx context.Context, c *client.Client, wl api.WorkloadSpec, faults *api.FaultSpec, maxPRC, maxCG int) {
	var points []api.Point
	for p := 0; p <= maxPRC; p++ {
		for cg := 0; cg <= maxCG; cg++ {
			if p == 0 && cg == 0 {
				continue
			}
			points = append(points, api.Point{PRC: p, CG: cg, Policy: "mrts"})
		}
	}
	final, err := c.Sweep(ctx, api.SweepRequest{Workload: wl, Points: points, Faults: faults}, func(ev api.SweepEvent) {
		src := "sim"
		if ev.Cached {
			src = "hit"
		}
		if ev.Error != "" {
			fmt.Printf("%d/%d  ERROR %s\n", ev.Point.PRC, ev.Point.CG, ev.Error)
			return
		}
		fmt.Printf("%d/%d  %10.2f Mcycles  %5.2fx  [%s]\n",
			ev.Point.PRC, ev.Point.CG, float64(ev.Report.TotalCycles)/1e6, ev.Report.Speedup, src)
	})
	fatalIf(err)
	fmt.Printf("sweep: %d points (%d failed) in %.3fs\n", final.Completed, final.Failed, final.ElapsedSec)
}

func marshalReport(st *api.JobStatus) ([]byte, error) {
	return api.MarshalIndentReport(st.Result.Report)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrts-submit:", err)
		os.Exit(1)
	}
}
