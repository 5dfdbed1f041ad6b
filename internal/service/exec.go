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
func (j *jobEval) eval(ctx context.Context, cfg arch.Config, p exp.Policy, seed uint64, fo fault.Options) (*sim.Report, bool, error) {
	s := j.s
	s.batchPoints.Inc()
	ent, err := j.entry(ctx)
	if err != nil {
		return nil, false, err
	}
	start := time.Now()
	rep, hit, err := ent.eng.Eval(ctx, cfg, p, seed, fo)
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

func (j *jobEval) faultEval(ctx context.Context, cfg arch.Config, p exp.Policy, seed uint64, fo fault.Options) (*sim.Report, error) {
	rep, _, err := j.eval(ctx, cfg, p, seed, fo)
	return rep, err
}

func (j *jobEval) plainEval(ctx context.Context, cfg arch.Config, p exp.Policy) (*sim.Report, error) {
	rep, _, err := j.eval(ctx, cfg, p, 0, fault.Options{})
	return rep, err
}

// FaultEvaluator returns the service's job-execution path as an
// exp.FaultEvaluator over the workload's batch.Engine, fetched from the
// workload cache on the first call. The engine's report memo and
// selection memo are shared by every job on the workload (see §12.3 of
// DESIGN.md). Figure sweeps, sweep batches and sim jobs all use this path.
func (s *Server) FaultEvaluator(opts workload.Options) (exp.FaultEvaluator, *EvalStats) {
	j := &jobEval{s: s, opts: opts.Canonical()}
	return j.faultEval, &j.stats
}

// Evaluator is FaultEvaluator restricted to the benign scenario — the
// fault-free sweep path used by figures.
func (s *Server) Evaluator(opts workload.Options) (exp.Evaluator, *EvalStats) {
	j := &jobEval{s: s, opts: opts.Canonical()}
	return j.plainEval, &j.stats
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
		err = s.execSweep(ctx, spec.Points, spec.Faults, j.faultEval, res)
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
	ref, err := j.faultEval(ctx, arch.Config{}, exp.PolicyRISC, 0, fault.Options{})
	if err != nil {
		return err
	}
	seed, fo := faultScenario(spec.Faults, ref)
	cfg := arch.Config{NPRC: spec.PRC, NCG: spec.CG}

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
		rec.SetRun(fmt.Sprintf("%s/%dx%d", p, cfg.NPRC, cfg.NCG))
		start := time.Now()
		rep, err = ent.eng.Observe(ctx, cfg, p, seed, fo, rec)
		if err != nil {
			return err
		}
		s.pointSeconds.Observe(time.Since(start).Seconds())
		res.TraceJSONL = rec.JSONL()
	} else {
		rep, err = j.faultEval(ctx, cfg, p, seed, fo)
		if err != nil {
			return err
		}
	}
	r := api.NewReport(rep, ref)
	res.Report = &r
	return nil
}

// execFig regenerates one figure. The rendered text is byte-identical to
// what `mrts-sweep -fig <name>` prints for the same workload and bounds,
// because the identical harness and renderer run underneath.
func (s *Server) execFig(ctx context.Context, spec api.JobSpec, opts workload.Options, j *jobEval, res *api.JobResult) error {
	maxPRC, maxCG := spec.MaxPRC, spec.MaxCG
	if maxPRC == 0 {
		maxPRC = 4
	}
	if maxCG == 0 {
		maxCG = 3
	}
	var buf bytes.Buffer
	switch spec.Fig {
	case "8":
		r, err := exp.Fig8(ctx, j.plainEval, maxPRC, maxCG)
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "9":
		r, err := exp.Fig9(ctx, j.plainEval, maxPRC, maxCG)
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "10":
		r, err := exp.Fig10(ctx, j.plainEval, min(maxPRC, 3), maxCG)
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "mix":
		for _, total := range []int{3, 5, 7} {
			r, err := exp.MixFrontier(ctx, j.plainEval, total)
			if err != nil {
				return err
			}
			r.Render(&buf)
			fmt.Fprintln(&buf)
		}
	case "shared":
		// The sharing sweep runs its points outside the evaluator; the
		// engine's selection memo reaches them through the context.
		ent, err := j.entry(ctx)
		if err != nil {
			return err
		}
		ctx = exp.WithSelectionMemo(ctx, ent.eng.Memo())
		r, err := exp.Shared(ctx, ent.eng.Workload(), arch.Config{NPRC: maxPRC, NCG: maxCG})
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "overhead":
		ent, err := j.entry(ctx)
		if err != nil {
			return err
		}
		r, err := exp.Overhead(ent.eng.Workload(), arch.Config{NPRC: 2, NCG: 2})
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "faults":
		seed := uint64(1)
		if spec.Faults != nil && spec.Faults.Seed != 0 {
			seed = spec.Faults.Seed
		}
		r, err := exp.Faults(ctx, j.faultEval, exp.FaultsConfig, seed)
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "tenants":
		maxK := spec.Tenants
		if maxK == 0 {
			maxK = api.MaxTenants
		}
		mix := spec.Mix
		if mix == "" {
			mix = "uniform"
		}
		// Tenant 0 runs the job's own workload, so resolving its engine
		// builds nothing extra; as for "shared", its selection memo
		// reaches the tenant systems through the context.
		ent, err := j.entry(ctx)
		if err != nil {
			return err
		}
		ctx = exp.WithSelectionMemo(ctx, ent.eng.Memo())
		r, err := exp.Tenants(ctx, s.workload, opts, arch.Config{NPRC: maxPRC, NCG: maxCG}, maxK, mix)
		if err != nil {
			return err
		}
		r.Render(&buf)
	case "phase":
		// The sweep builds one phased workload per divergence level; the
		// singleflight workload cache dedupes them across jobs.
		seed := spec.Workload.Seed
		if seed == 0 {
			seed = 1
		}
		r, err := exp.Phase(ctx, s.workload, arch.Config{NPRC: min(maxPRC, 2), NCG: min(maxCG, 2)}, seed)
		if err != nil {
			return err
		}
		r.Render(&buf)
	default:
		return fmt.Errorf("service: unknown fig %q", spec.Fig)
	}
	res.Text = buf.String()
	return nil
}

// execSweep evaluates an explicit batch of points (the body of both sweep
// jobs and the streaming /v1/sweep endpoint's final result). A job-level
// fault scenario applies to every point of the batch.
func (s *Server) execSweep(ctx context.Context, points []api.Point, faults *api.FaultSpec, eval exp.FaultEvaluator, res *api.JobResult) error {
	ref, err := eval(ctx, arch.Config{}, exp.PolicyRISC, 0, fault.Options{})
	if err != nil {
		return err
	}
	seed, fo := faultScenario(faults, ref)
	reports, err := exp.ParMap(ctx, len(points), func(ctx context.Context, i int) (api.Report, error) {
		p, err := exp.ParsePolicy(points[i].Policy)
		if err != nil {
			return api.Report{}, err
		}
		rep, err := eval(ctx, points[i].Config(), p, seed, fo)
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
