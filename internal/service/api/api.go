// Package api defines the wire types of the mrts-serve HTTP/JSON API. It
// is shared by the server (internal/service), the client
// (internal/service/client) and the command-line tools, so a report
// encoded by mrts-sim -o, a cached result served by the daemon and a
// result printed by mrts-submit all use the same encoding.
package api

import (
	"encoding/json"
	"fmt"
	"strings"

	"mrts/internal/arch"
	"mrts/internal/exp"
	"mrts/internal/fault"
	"mrts/internal/reconfig"
	"mrts/internal/sim"
	"mrts/internal/video"
	"mrts/internal/workload"
)

// Job types accepted by POST /v1/jobs.
const (
	// JobSim runs one (fabric, policy) point and reports its cycle
	// accounting against the RISC-mode reference.
	JobSim = "sim"
	// JobFig regenerates one figure/table of the paper's evaluation.
	JobFig = "fig"
	// JobSweep evaluates an explicit batch of points.
	JobSweep = "sweep"
)

// MaxTenants bounds the K of a tenant-sweep fig job (exp.MaxTenants).
const MaxTenants = exp.MaxTenants

// PhasedSpec selects the dynamic control-flow workload generator instead
// of the encoder pipeline (workload.PhasedOptions). Zero fields take the
// generator's defaults; Divergence follows the workload package's
// explicit-zero convention (0 = default, negative = static).
type PhasedSpec struct {
	Blocks     int     `json:"blocks,omitempty"`
	Kernels    int     `json:"kernels,omitempty"`
	ISEs       int     `json:"ises,omitempty"`
	Rounds     int     `json:"rounds,omitempty"`
	Phases     int     `json:"phases,omitempty"`
	Divergence float64 `json:"divergence,omitempty"`
}

// Generator-size caps for phased workload specs: each round simulates
// every block, so the product bounds the job's work.
const (
	MaxPhasedBlocks = 16
	MaxPhasedRounds = 4096
)

// Validate bounds the generator sizes so oversized jobs fail at submit
// time with a 400 instead of occupying a worker.
func (p *PhasedSpec) Validate() error {
	if p == nil {
		return nil
	}
	if p.Blocks < 0 || p.Blocks > MaxPhasedBlocks {
		return fmt.Errorf("api: phased blocks %d outside 0..%d", p.Blocks, MaxPhasedBlocks)
	}
	if p.Rounds < 0 || p.Rounds > MaxPhasedRounds {
		return fmt.Errorf("api: phased rounds %d outside 0..%d", p.Rounds, MaxPhasedRounds)
	}
	if p.Kernels < 0 || p.ISEs < 0 || p.Phases < 0 {
		return fmt.Errorf("api: negative phased generator size")
	}
	if p.Divergence > 1 {
		return fmt.Errorf("api: phased divergence %v above 1", p.Divergence)
	}
	return nil
}

// Options converts the spec to phased generator options.
func (p *PhasedSpec) Options() *workload.PhasedOptions {
	if p == nil {
		return nil
	}
	return &workload.PhasedOptions{
		Blocks:     p.Blocks,
		Kernels:    p.Kernels,
		ISEs:       p.ISEs,
		Rounds:     p.Rounds,
		Phases:     p.Phases,
		Divergence: p.Divergence,
	}
}

// WorkloadSpec selects the workload a job runs on. The zero value is the
// default experiment workload geometry with no scene cuts.
type WorkloadSpec struct {
	Width       int    `json:"width,omitempty"`
	Height      int    `json:"height,omitempty"`
	Frames      int    `json:"frames,omitempty"`
	Seed        uint64 `json:"seed,omitempty"`
	ProfileSeed uint64 `json:"profile_seed,omitempty"`
	SceneCuts   []int  `json:"scene_cuts,omitempty"`
	// Phased switches the job to a dynamic control-flow workload; the
	// frame-geometry fields above are unused then.
	Phased *PhasedSpec `json:"phased,omitempty"`
}

// Options converts the spec to workload build options.
func (ws WorkloadSpec) Options() workload.Options {
	return workload.Options{
		Width:       ws.Width,
		Height:      ws.Height,
		Frames:      ws.Frames,
		Seed:        ws.Seed,
		ProfileSeed: ws.ProfileSeed,
		Video:       video.Options{SceneCuts: ws.SceneCuts},
		Phased:      ws.Phased.Options(),
	}
}

// FaultSpec selects a deterministic fault scenario for a job. The zero
// value — and a nil *FaultSpec — is the benign fault-free run, whose
// results are byte-identical to a job without the field.
type FaultSpec struct {
	// Seed draws the fault schedule; the same seed reproduces the same
	// schedule and report byte-for-byte.
	Seed uint64 `json:"seed,omitempty"`
	// FailPRC / FailCG are permanent container failures per fabric.
	FailPRC int `json:"fail_prc,omitempty"`
	FailCG  int `json:"fail_cg,omitempty"`
	// FlapPRC / FlapCG are intermittent outages (down, later recovered).
	FlapPRC int `json:"flap_prc,omitempty"`
	FlapCG  int `json:"flap_cg,omitempty"`
	// CorruptFG / CorruptCG are bitstream corruptions caught by the
	// configuration port's CRC check and retried with bounded backoff.
	CorruptFG int `json:"corrupt_fg,omitempty"`
	CorruptCG int `json:"corrupt_cg,omitempty"`
	// HorizonMCycles is the window (in Mcycles) fault times are drawn
	// from; when zero the server derives it from the RISC-mode reference
	// run (a tenth of its execution time).
	HorizonMCycles float64 `json:"horizon_mcycles,omitempty"`
}

// IsZero reports whether the spec requests no fault events.
func (f *FaultSpec) IsZero() bool {
	return f == nil || (f.FailPRC == 0 && f.FailCG == 0 &&
		f.FlapPRC == 0 && f.FlapCG == 0 && f.CorruptFG == 0 && f.CorruptCG == 0)
}

// Options converts the spec to fault engine options. The horizon may still
// be zero; the executor defaults it from the RISC reference run.
func (f *FaultSpec) Options() fault.Options {
	if f == nil {
		return fault.Options{}
	}
	return fault.Options{
		FailPRC:   f.FailPRC,
		FailCG:    f.FailCG,
		FlapPRC:   f.FlapPRC,
		FlapCG:    f.FlapCG,
		CorruptFG: f.CorruptFG,
		CorruptCG: f.CorruptCG,
		Horizon:   arch.Cycles(f.HorizonMCycles * 1e6),
	}
}

// Validate checks the scenario counts (the horizon is validated at
// execution time, after defaulting).
func (f *FaultSpec) Validate() error {
	if f == nil {
		return nil
	}
	fo := f.Options()
	if fo.Horizon == 0 {
		fo.Horizon = 1 // placeholder: the executor derives the real one
	}
	if f.HorizonMCycles < 0 {
		return fmt.Errorf("api: negative fault horizon %v", f.HorizonMCycles)
	}
	return fo.Validate()
}

// Point is one (fabric combination, policy) evaluation.
type Point struct {
	PRC    int    `json:"prc"`
	CG     int    `json:"cg"`
	Policy string `json:"policy"`
}

// Config returns the fabric budget of the point.
func (p Point) Config() arch.Config { return arch.Config{NPRC: p.PRC, NCG: p.CG} }

// JobSpec is the body of POST /v1/jobs.
type JobSpec struct {
	// Type is one of JobSim, JobFig, JobSweep.
	Type     string       `json:"type"`
	Workload WorkloadSpec `json:"workload"`

	// Sim jobs: the point to evaluate.
	PRC    int    `json:"prc,omitempty"`
	CG     int    `json:"cg,omitempty"`
	Policy string `json:"policy,omitempty"`

	// Fig jobs: figure name plus the sweep bounds.
	Fig    string `json:"fig,omitempty"`
	MaxPRC int    `json:"maxprc,omitempty"`
	MaxCG  int    `json:"maxcg,omitempty"`

	// Tenants / Mix configure the "tenants" figure: the maximum tenant
	// count of the K=1..Tenants sweep (default 8, capped at MaxTenants)
	// and the tenant-population scenario (exp.TenantMixes; default
	// "uniform"). The workload spec above is tenant 0's workload; the mix
	// derives the other tenants from it.
	Tenants int    `json:"tenants,omitempty"`
	Mix     string `json:"mix,omitempty"`

	// Sweep jobs: the batch of points.
	Points []Point `json:"points,omitempty"`

	// Faults selects a deterministic fault scenario. For sim and sweep
	// jobs it applies to every evaluated point; for the "faults" figure
	// only the seed is used (the figure sweeps its own loss fractions).
	Faults *FaultSpec `json:"faults,omitempty"`

	// Trace asks a sim job to capture the decision trace of its evaluated
	// point; the JSONL stream comes back in JobResult.TraceJSONL. Traced
	// points bypass the report memo (the trace must come from a real run)
	// but still produce a byte-identical report.
	Trace bool `json:"trace,omitempty"`

	// TimeoutSec overrides the server's per-job timeout when positive.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// Validate checks the spec before it is queued, so submissions fail fast
// with a 400 instead of failing later on a worker.
func (s JobSpec) Validate() error {
	if err := (arch.Config{NPRC: s.PRC, NCG: s.CG}).Validate(); err != nil {
		return err
	}
	if s.Workload.Frames < 0 {
		return fmt.Errorf("api: negative frame count %d", s.Workload.Frames)
	}
	if err := s.Workload.Phased.Validate(); err != nil {
		return err
	}
	if err := s.Faults.Validate(); err != nil {
		return err
	}
	if s.Trace && s.Type != JobSim {
		return fmt.Errorf("api: trace capture is only supported for sim jobs, not %q", s.Type)
	}
	switch s.Type {
	case JobSim:
		if _, err := exp.ParsePolicy(s.policyOrDefault()); err != nil {
			return err
		}
	case JobFig:
		if !exp.ValidFig(s.Fig) {
			return fmt.Errorf("api: unknown fig %q (valid: %s)", s.Fig, strings.Join(exp.FigNames, ", "))
		}
		if s.Tenants < 0 || s.Tenants > MaxTenants {
			return fmt.Errorf("api: tenant count %d outside 1..%d", s.Tenants, MaxTenants)
		}
		if s.Mix != "" && !exp.ValidMix(s.Mix) {
			return fmt.Errorf("api: unknown tenant mix %q (valid: %s)", s.Mix, strings.Join(exp.TenantMixes, ", "))
		}
		if (s.Tenants != 0 || s.Mix != "") && s.Fig != "tenants" {
			return fmt.Errorf("api: tenants/mix only apply to the \"tenants\" fig, not %q", s.Fig)
		}
	case JobSweep:
		if len(s.Points) == 0 {
			return fmt.Errorf("api: sweep job needs at least one point")
		}
		for _, p := range s.Points {
			if err := p.Config().Validate(); err != nil {
				return err
			}
			if _, err := exp.ParsePolicy(p.Policy); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("api: unknown job type %q (valid: sim, fig, sweep)", s.Type)
	}
	return nil
}

func (s JobSpec) policyOrDefault() string {
	if s.Policy == "" {
		return "mrts"
	}
	return s.Policy
}

// SimPolicy resolves the policy of a sim job.
func (s JobSpec) SimPolicy() (exp.Policy, error) { return exp.ParsePolicy(s.policyOrDefault()) }

// JobState is the lifecycle state of a job.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Report is the flat JSON encoding of a simulation report plus its
// RISC-mode reference — the same shape mrts-sim prints with -json.
type Report struct {
	Policy          string                 `json:"policy"`
	PRC             int                    `json:"prc"`
	CG              int                    `json:"cg"`
	TotalCycles     arch.Cycles            `json:"total_cycles"`
	RISCCycles      arch.Cycles            `json:"risc_cycles"`
	Speedup         float64                `json:"speedup"`
	Executions      int64                  `json:"executions"`
	OverheadCycles  arch.Cycles            `json:"overhead_cycles"`
	SoftwareCycles  arch.Cycles            `json:"software_cycles"`
	KernelCycles    arch.Cycles            `json:"kernel_cycles"`
	ModeExecutions  [4]int64               `json:"mode_executions"`
	BlockCycles     map[string]arch.Cycles `json:"block_cycles"`
	BlockIterations map[string]int         `json:"block_iterations"`
	Reconfig        reconfig.Stats         `json:"reconfig"`
	// Fault is present only when the run saw fault activity, so the
	// encoding of fault-free reports is byte-identical to earlier
	// versions.
	Fault *sim.FaultStats `json:"fault,omitempty"`
	// Forecast summarises the MPU's forecast-error accounting; present
	// only when the run scored observations (predictor-less policies and
	// older cached reports omit it).
	Forecast *ForecastSummary `json:"forecast,omitempty"`
}

// ForecastSummary is the flat encoding of the MPU error accounting
// (mpu.ErrorReport totals; the per-key split stays inside sim.Report).
type ForecastSummary struct {
	Predictor  string  `json:"predictor"`
	Samples    int64   `json:"samples"`
	AbsErrE    int64   `json:"abs_err_e"`
	MeanAbsErr float64 `json:"mean_abs_err"`
}

// NewReport flattens a simulation report; ref is the RISC-mode reference
// run for the speedup (may be the report itself for RISC jobs).
func NewReport(rep, ref *sim.Report) Report {
	var fs *sim.FaultStats
	if !rep.Fault.IsZero() {
		f := rep.Fault
		fs = &f
	}
	var fc *ForecastSummary
	if !rep.Forecast.IsZero() {
		fc = &ForecastSummary{
			Predictor:  rep.Forecast.Predictor,
			Samples:    rep.Forecast.Total.Samples,
			AbsErrE:    rep.Forecast.Total.AbsErrE,
			MeanAbsErr: rep.Forecast.Total.MeanAbsE(),
		}
	}
	return Report{
		Fault:           fs,
		Forecast:        fc,
		Policy:          rep.Policy,
		PRC:             rep.Config.NPRC,
		CG:              rep.Config.NCG,
		TotalCycles:     rep.TotalCycles,
		RISCCycles:      ref.TotalCycles,
		Speedup:         rep.Speedup(ref),
		Executions:      rep.Executions,
		OverheadCycles:  rep.OverheadCycles,
		SoftwareCycles:  rep.SoftwareCycles,
		KernelCycles:    rep.KernelCycles,
		ModeExecutions:  rep.ModeExecs,
		BlockCycles:     rep.BlockCycles,
		BlockIterations: rep.BlockIterations,
		Reconfig:        rep.Reconfig,
	}
}

// MarshalIndentReport renders a report as indented JSON with a trailing
// newline — the one encoding shared by mrts-sim (-json / -o),
// mrts-submit and the service's golden tests.
func MarshalIndentReport(r *Report) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// JobResult is what a finished job carries.
type JobResult struct {
	// Text is the rendered figure/table, byte-identical to what the
	// offline CLI (mrts-sweep / mrts-sim) prints for the same request.
	Text string `json:"text,omitempty"`
	// Report is set for sim jobs.
	Report *Report `json:"report,omitempty"`
	// Reports is set for sweep jobs, in point order.
	Reports []Report `json:"reports,omitempty"`
	// TraceJSONL is the decision trace of a sim job that set Trace: one
	// JSON event per line, renderable with mrts-timeline.
	TraceJSONL string `json:"trace_jsonl,omitempty"`
	// CacheHits/CacheMisses count this job's point evaluations served
	// from the report memo (or an identical in-flight run) and simulated.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// ElapsedSec is the job's wall-clock execution time.
	ElapsedSec float64 `json:"elapsed_sec"`
}

// JobStatus is the body of GET /v1/jobs/{id}.
type JobStatus struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Spec     JobSpec    `json:"spec"`
	Error    string     `json:"error,omitempty"`
	Result   *JobResult `json:"result,omitempty"`
	Created  string     `json:"created,omitempty"`
	Started  string     `json:"started,omitempty"`
	Finished string     `json:"finished,omitempty"`
}

// SubmitResponse is the body of a successful POST /v1/jobs.
type SubmitResponse struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// SweepRequest is the body of POST /v1/sweep. A fault scenario, when
// given, applies to every point of the batch (the RISC reference run
// stays fault-free).
type SweepRequest struct {
	Workload WorkloadSpec `json:"workload"`
	Points   []Point      `json:"points"`
	Faults   *FaultSpec   `json:"faults,omitempty"`
}

// SweepEvent is one newline-delimited JSON event of the /v1/sweep stream:
// a progress event per completed point, then a final summary event with
// Done set.
type SweepEvent struct {
	Index  int     `json:"index"`
	Point  Point   `json:"point"`
	Cached bool    `json:"cached,omitempty"`
	Report *Report `json:"report,omitempty"`
	Error  string  `json:"error,omitempty"`

	Done       bool    `json:"done,omitempty"`
	Completed  int     `json:"completed,omitempty"`
	Failed     int     `json:"failed,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec,omitempty"`
}
