package service

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"mrts/internal/arch"
	"mrts/internal/exp"
	"mrts/internal/fault"
	"mrts/internal/obs"
	"mrts/internal/selector"
	"mrts/internal/service/api"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

// EvalStats counts one job's point evaluations: Hits were served without
// simulating (from the report memo or an identical in-flight run).
type EvalStats struct {
	Hits, Misses atomic.Int64
}

// jobEval is one job's view of its workload's engine, resolved on first
// use so that jobs which never evaluate a point never build the workload.
type jobEval struct {
	s     *Server
	opts  workload.Options // canonical
	ent   atomic.Pointer[workEntry]
	stats EvalStats
}

// entry returns the workload-cache entry, building the workload under ctx
// if this is the first call.
func (j *jobEval) entry(ctx context.Context) (*workEntry, error) {
	if ent := j.ent.Load(); ent != nil {
		return ent, nil
	}
	ent, err := j.s.workloads.Get(ctx, j.opts)
	if err != nil {
		return nil, err
	}
	j.ent.Store(ent)
	return ent, nil
}

// eval is the service's one point-evaluation path: the engine's Eval, plus
// the job's and the server's accounting of what it cost.
func (j *jobEval) eval(ctx context.Context, pt exp.Point) (*sim.Report, bool, error) {
	s := j.s
	s.batchPoints.Inc()
	ent, err := j.entry(ctx)
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	rep, hit, err := ent.eng.Eval(ctx, pt)
	if err != nil {
		return nil, false, err
	}
	if hit {
		j.stats.Hits.Add(1)
		s.cacheHits.Inc()
	} else {
		j.stats.Misses.Add(1)
		s.cacheMisses.Inc()
		s.pointSeconds.Observe(time.Since(start).Seconds())
		ent.flushSeedHits(s.batchSeedHits)
	}
	return rep, hit, nil
}

// pointEval is eval as the job's exp.PointEvaluator: figure sweeps, sweep
// batches and sim jobs all evaluate through it.
func (j *jobEval) pointEval(ctx context.Context, pt exp.Point) (*sim.Report, error) {
	rep, _, err := j.eval(ctx, pt)
	return rep, err
}

// Evaluator returns the service's job-execution path, restricted to plain
// points, over the workload's batch.Engine, fetched from the workload
// cache on the first call. The engine's report memo and selection memo
// are shared by every job on the workload (see §12.3 of DESIGN.md).
func (s *Server) Evaluator(opts workload.Options) (exp.Evaluator, *EvalStats) {
	j := &jobEval{s: s, opts: opts.Canonical()}
	return exp.PointEvaluator(j.pointEval).Plain(), &j.stats
}

// workload returns the built workload for opts from the workload cache;
// it is the exp.WorkloadProvider of the sweeps that build their own
// workloads (tenants, phase), so each build happens at most once per
// server.
func (s *Server) workload(ctx context.Context, opts workload.Options) (*workload.Result, error) {
	ent, err := s.workloads.Get(ctx, opts.Canonical())
	if err != nil {
		return nil, err
	}
	return ent.eng.Workload(), nil
}

// execute runs one job spec to completion under ctx.
func (s *Server) execute(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
	opts := spec.Workload.Options()
	j := &jobEval{s: s, opts: opts.Canonical()}
	res := &api.JobResult{}

	start := time.Now()
	var err error
	switch spec.Type {
	case api.JobSim:
		err = s.execSim(ctx, spec, j, res)
	case api.JobFig:
		err = s.execFig(ctx, spec, opts, j, res)
	case api.JobSweep:
		err = s.execSweep(ctx, spec.Points, spec.Faults, j.pointEval, res)
	default:
		err = fmt.Errorf("service: unknown job type %q", spec.Type)
	}
	if err != nil {
		return nil, err
	}
	if spec.Type == api.JobFig || spec.Type == api.JobSweep {
		s.batchSeconds.Observe(time.Since(start).Seconds())
	}
	if ent := j.ent.Load(); ent != nil {
		ent.flushSeedHits(s.batchSeedHits)
	}
	res.CacheHits = j.stats.Hits.Load()
	res.CacheMisses = j.stats.Misses.Load()
	return res, nil
}

// faultScenario resolves a job's fault spec against the RISC reference
// run: scenarios that gave no horizon get a tenth of the RISC-mode
// execution time, the same derivation the faults figure uses.
func faultScenario(spec *api.FaultSpec, ref *sim.Report) (uint64, fault.Options) {
	if spec.IsZero() {
		return 0, fault.Options{}
	}
	fo := spec.Options()
	if fo.Horizon == 0 {
		fo.Horizon = ref.TotalCycles / 10
	}
	return spec.Seed, fo
}

func (s *Server) execSim(ctx context.Context, spec api.JobSpec, j *jobEval, res *api.JobResult) error {
	p, err := spec.SimPolicy()
	if err != nil {
		return err
	}
	// The RISC reference is always fault-free: it has no fabric to fail,
	// and it anchors the speedup of the degraded run.
	ref, err := j.pointEval(ctx, exp.Point{Policy: exp.PolicyRISC})
	if err != nil {
		return err
	}
	pt := exp.Point{Config: arch.Config{NPRC: spec.PRC, NCG: spec.CG}, Policy: p}
	pt.Seed, pt.Faults = faultScenario(spec.Faults, ref)

	var rep *sim.Report
	if spec.Trace {
		// Traced points bypass the point-memo lookup — the trace must
		// come from a real run — but the engine still memoises the
		// report for untraced followers.
		ent, err := j.entry(ctx)
		if err != nil {
			return err
		}
		rec := obs.New()
		if s.opts.Node != "" {
			rec.SetNode(s.opts.Node)
		}
		rec.SetRun(fmt.Sprintf("%s/%dx%d", p, pt.Config.NPRC, pt.Config.NCG))
		start := time.Now()
		rep, err = ent.eng.Observe(ctx, pt, rec)
		if err != nil {
			return err
		}
		s.pointSeconds.Observe(time.Since(start).Seconds())
		res.TraceJSONL = rec.JSONL()
	} else {
		rep, err = j.pointEval(ctx, pt)
		if err != nil {
			return err
		}
	}
	r := api.NewReport(rep, ref)
	res.Report = &r
	return nil
}

// execFig regenerates one figure through exp.RenderFig, the driver
// mrts-sweep renders with, so the text is byte-identical to
// `mrts-sweep -fig <name>` for the same workload and inputs.
func (s *Server) execFig(ctx context.Context, spec api.JobSpec, opts workload.Options, j *jobEval, res *api.JobResult) error {
	in := exp.FigInput{
		Base:    opts,
		MaxPRC:  spec.MaxPRC,
		MaxCG:   spec.MaxCG,
		Tenants: spec.Tenants,
		Mix:     spec.Mix,
		Eval:    j.pointEval,
		// The job's own workload-cache entry: its engine's selection memo
		// reaches the harnesses that run outside the evaluator.
		Workload: func(ctx context.Context) (*workload.Result, *selector.Memo, error) {
			ent, err := j.entry(ctx)
			if err != nil {
				return nil, nil, err
			}
			return ent.eng.Workload(), ent.eng.Memo(), nil
		},
		// The tenant and phase sweeps' workloads come from the
		// singleflight workload cache, deduped across jobs.
		Workloads: s.workload,
	}
	if spec.Faults != nil {
		in.FaultSeed = spec.Faults.Seed
	}
	var buf bytes.Buffer
	if err := exp.RenderFig(ctx, &buf, spec.Fig, in); err != nil {
		return err
	}
	res.Text = buf.String()
	return nil
}

// execSweep evaluates an explicit batch of points (the body of both sweep
// jobs and the streaming /v1/sweep endpoint's final result). A job-level
// fault scenario applies to every point of the batch.
func (s *Server) execSweep(ctx context.Context, points []api.Point, faults *api.FaultSpec, eval exp.PointEvaluator, res *api.JobResult) error {
	ref, err := eval(ctx, exp.Point{Policy: exp.PolicyRISC})
	if err != nil {
		return err
	}
	seed, fo := faultScenario(faults, ref)
	reports, err := exp.ParMap(ctx, len(points), func(ctx context.Context, i int) (api.Report, error) {
		p, err := exp.ParsePolicy(points[i].Policy)
		if err != nil {
			return api.Report{}, err
		}
		rep, err := eval(ctx, exp.Point{Config: points[i].Config(), Policy: p, Seed: seed, Faults: fo})
		if err != nil {
			return api.Report{}, err
		}
		return api.NewReport(rep, ref), nil
	})
	if err != nil {
		return err
	}
	res.Reports = reports
	return nil
}
