// Package service is the mrts-serve daemon core: a concurrent simulation
// service that accepts simulation, figure and sweep jobs over HTTP/JSON,
// executes them on a bounded worker pool with per-job cancellation and
// timeouts, and amortises repeated work across requests with a
// singleflight workload cache whose entries are batch engines — one report
// memo and one selection memo per workload. It is the long-lived
// counterpart of the one-shot CLIs: the same experiment pipeline
// (internal/exp) runs underneath, but sweeps over many (fabric x policy x
// workload) points share traces and previously simulated points instead of
// rebuilding them per process.
//
// With a write-ahead journal attached (Options.Journal) the job table is
// durable: submissions are journaled before they are acknowledged, and a
// restarted server replays the journal — completed jobs keep their
// results, unfinished jobs are re-run (safe because jobs are
// deterministic), and idempotency keys are rebuilt so client replays
// still dedupe across the restart.
package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/service/api"
	"mrts/internal/service/journal"
)

// errJobCancelled is the cancel cause distinguishing an API cancellation
// from a timeout or a server shutdown.
var errJobCancelled = errors.New("job cancelled")

// ErrShuttingDown is the cancel cause of every job aborted by Close: a
// client polling such a job sees "shutting down", not a generic
// cancellation, and knows to resubmit elsewhere (or, with a journal,
// that the job re-runs after restart).
var ErrShuttingDown = errors.New("service: shutting down")

// ErrQueueFull is returned by Submit when the job queue is saturated.
var ErrQueueFull = errors.New("service: job queue full")

// ErrDraining is returned by Submit while the server is draining: it has
// stopped admitting work and is finishing (or journaling) what it has.
var ErrDraining = errors.New("service: draining, not admitting new jobs")

// Options configure a server.
type Options struct {
	// Workers is the size of the worker pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many queued-but-not-running jobs a new
	// submission may find ahead of it; beyond that it is rejected with
	// 503 (default 256). Jobs recovered from the journal or adopted from
	// a dead cluster peer are acknowledged work and are never refused.
	QueueDepth int
	// WorkloadCacheSize bounds the built-workload LRU (default 16).
	WorkloadCacheSize int
	// JobTimeout is the default per-job execution deadline; a job spec
	// may override it with TimeoutSec (default 10 minutes).
	JobTimeout time.Duration
	// Journal, when non-nil, makes the job table durable: the server
	// replays the journal's recovered records at startup and appends
	// every later transition. The server takes ownership and closes the
	// journal in Close.
	Journal *journal.Journal
	// RatePerSec enables per-client token-bucket admission control when
	// positive: each client (X-Client-ID header, else remote IP) may
	// submit at this sustained rate, with RateBurst (default
	// ceil(RatePerSec)) tokens of burst. Rejected submissions get 429
	// with a Retry-After hint.
	RatePerSec float64
	// RateBurst is the bucket capacity of the per-client limiter.
	RateBurst int
	// IdemTableSize bounds the idempotency dedupe table (default
	// DefaultIdemTableSize): beyond it the least-recently-used key is
	// evicted, so the table cannot grow without bound across a long-lived
	// server. An evicted key's retry is accepted as a fresh submission.
	IdemTableSize int
	// Node labels this server as a cluster member: captured decision
	// traces are tagged with it (obs.Event.Node) so traces from several
	// nodes stay attributable once merged. Empty outside cluster mode.
	Node string
	// ExecOverride replaces the job execution path — test harnesses
	// (panic injection, blocking executors, instant fakes) only; nil in
	// production.
	ExecOverride func(context.Context, api.JobSpec) (*api.JobResult, error)
}

func (o *Options) defaults() {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 10 * time.Minute
	}
}

// Job is the server-side state of one submitted job. Fields are guarded
// by the owning Server's mu.
type Job struct {
	ID       string
	Spec     api.JobSpec
	State    api.JobState
	Err      string
	Result   *api.JobResult
	Created  time.Time
	Started  time.Time
	Finished time.Time
	// IdemKey is the client-supplied idempotency key, if any; it maps back
	// to this job in the server's dedupe table until the job is retired.
	IdemKey string
	// Recovered marks a job rebuilt from the journal at startup or
	// adopted from a dead cluster peer's replicated journal.
	Recovered bool
	// taken marks a queued job removed from the queue by TakeQueued for a
	// steal handoff; only taken jobs may be Forgotten or Requeued.
	taken bool

	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{} // closed when the job reaches a terminal state
	// durable is closed once the job's submit record is fsynced (or
	// immediately when there is no journal). Deduped submissions wait on
	// it: a 202 — original or replayed — must never point at a job that
	// a crash could still lose.
	durable chan struct{}
}

// Done returns a channel closed when the job reaches a terminal state —
// the cluster layer waits on it to replicate the completion record.
func (j *Job) Done() <-chan struct{} { return j.done }

// closedChan is a pre-closed channel for jobs with nothing to wait for
// (recovered from the journal, or created on a journal-less server).
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Server is the daemon: admission (draining, the per-client rate limiter,
// idempotency dedupe, the queue bound), the run queue and its worker
// pool, the job table, the journal and the caches.
type Server struct {
	opts      Options
	metrics   *Metrics
	workloads *WorkloadCache
	journal   *journal.Journal
	limiter   *rateLimiter // nil: no per-client rate limit
	draining  atomic.Bool

	baseCtx context.Context
	stop    context.CancelCauseFunc
	wg      sync.WaitGroup

	// execOverride replaces the job execution path in tests (panic
	// injection, slow jobs). Set before the first Submit (directly by
	// in-package tests, via Options.ExecOverride elsewhere); nil in
	// production.
	execOverride func(context.Context, api.JobSpec) (*api.JobResult, error)

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // submission order, for listing and retention
	// queue is the run queue: the queued jobs no worker or steal has
	// taken yet, oldest first. Cancel and Resolve remove a job from it
	// at once. A job pushed while a worker idles goes to handoff
	// instead: promised to that worker, it is neither counted nor
	// stealable, so a node with a free worker never looks hot. Workers
	// wait on wake; idle counts them.
	queue   []*Job
	handoff []*Job
	idle    int
	wake    *sync.Cond
	idem    *idemTable

	// maxFence is the highest fencing token found in the replayed journal
	// (see journal.KindGrant); the cluster layer seeds its grant counter
	// from it so fences stay monotonic across restarts.
	maxFence uint64

	jobsSubmitted, jobsDone, jobsFailed, jobsCancelled *Counter
	jobsDeduped, jobsRecovered                         *Counter
	panics, rateLimited                                *Counter
	journalRecords, journalErrors                      *Counter
	running                                            *Gauge
	jobSeconds, queueWaitSeconds, e2eSeconds           *Histogram
	cacheHits, cacheMisses                             *Counter
	pointSeconds                                       *Histogram
	batchPoints, batchSeedHits                         *Counter
	batchSeconds                                       *Histogram
}

// New creates a server, replays its journal (when one is configured) and
// starts the worker pool.
func New(opts Options) *Server {
	opts.defaults()
	m := NewMetrics()
	ctx, stop := context.WithCancelCause(context.Background())
	s := &Server{
		opts:      opts,
		metrics:   m,
		workloads: NewWorkloadCache(opts.WorkloadCacheSize, m),
		journal:   opts.Journal,
		baseCtx:   ctx,
		stop:      stop,
		jobs:      make(map[string]*Job),

		jobsSubmitted:  m.Counter("mrts_jobs_submitted_total"),
		jobsDone:       m.Counter("mrts_jobs_done_total"),
		jobsFailed:     m.Counter("mrts_jobs_failed_total"),
		jobsCancelled:  m.Counter("mrts_jobs_cancelled_total"),
		jobsDeduped:    m.Counter("mrts_jobs_deduped_total"),
		jobsRecovered:  m.Counter("mrts_jobs_recovered_total"),
		panics:         m.Counter("mrts_panics_total"),
		rateLimited:    m.Counter("mrts_rate_limited_total"),
		journalRecords: m.Counter("mrts_journal_records_total"),
		journalErrors:  m.Counter("mrts_journal_errors_total"),
	}
	// The rest register after the queue gauge, which needs s: registration
	// order is /metrics page order.
	m.GaugeFunc("mrts_queue_depth", func() int64 { return int64(s.QueueLen()) })
	s.running = m.Gauge("mrts_jobs_running")
	s.jobSeconds = m.Histogram("mrts_job_seconds")
	s.queueWaitSeconds = m.Histogram("mrts_job_queue_seconds")
	s.e2eSeconds = m.Histogram("mrts_job_e2e_seconds")
	s.cacheHits = m.Counter("mrts_result_cache_hits_total")
	s.cacheMisses = m.Counter("mrts_result_cache_misses_total")
	s.pointSeconds = m.Histogram("mrts_point_eval_seconds")
	s.batchPoints = m.Counter("mrts_batch_points_total")
	s.batchSeedHits = m.Counter("mrts_batch_seed_hits_total")
	s.batchSeconds = m.Histogram("mrts_batch_seconds")
	s.idem = newIdemTable(opts.IdemTableSize, m)
	s.wake = sync.NewCond(&s.mu)
	s.execOverride = opts.ExecOverride
	if opts.RatePerSec > 0 {
		s.limiter = newRateLimiter(opts.RatePerSec, opts.RateBurst)
	}

	if s.journal != nil {
		s.replayJournal(s.journal.Replayed())
		m.Counter("mrts_journal_replayed_total").Add(int64(len(s.journal.Replayed())))
		m.Counter("mrts_journal_replay_skipped_total").Add(int64(s.journal.Stats().ReplaySkipped))
	}

	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// replayJournal folds the recovered records into the job table: completed
// jobs keep their results, a cancel with no completion replays as a
// cancelled job, a submit voided by a reject or forget is dropped, and
// every other job re-runs. Re-running is safe because jobs are
// deterministic — the replayed run produces byte-identical results.
func (s *Server) replayJournal(recs []journal.Record) {
	for _, r := range recs {
		if r.Kind == journal.KindGrant && r.Fence > s.maxFence {
			s.maxFence = r.Fence
		}
	}
	byID, order := foldRecords(recs)
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range order {
		if f := byID[id]; !f.rejected {
			if j := s.installLocked(id, f, now, closedChan); !j.State.Terminal() {
				s.jobsRecovered.Inc()
			}
		}
	}
}

// installLocked puts one folded job into the table (s.mu held) — the one
// install path of journal replay and Adopt. A completed job keeps its
// result, a cancel with no completion installs cancelled, and anything
// else joins the run queue. Recovered work was acknowledged once, so the
// QueueDepth bound never refuses it. durable is the pending job's durable
// channel: closedChan when its submit record is already in this node's
// journal, else a channel the caller closes once it is.
func (s *Server) installLocked(id string, f *foldedJob, now time.Time, durable chan struct{}) *Job {
	job := &Job{
		ID:        id,
		Spec:      *f.submit.Spec,
		IdemKey:   f.submit.IdemKey,
		Created:   parseRecordTime(f.submit.Time, now),
		Recovered: true,
		cancel:    func(error) {},
		done:      closedChan,
		durable:   closedChan,
	}
	switch {
	case f.complete != nil && f.complete.State.Terminal():
		job.State = f.complete.State
		job.Err = f.complete.Error
		job.Result = f.complete.Result
		job.Finished = parseRecordTime(f.complete.Time, now)
	case f.cancelled:
		job.State = api.StateCancelled
		job.Err = "cancelled before restart"
		job.Finished = now
	default:
		job.State = api.StateQueued
		job.ctx, job.cancel = context.WithCancelCause(s.baseCtx)
		job.done = make(chan struct{})
		job.durable = durable
		s.pushLocked(job)
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	if job.IdemKey != "" {
		s.idem.put(job.IdemKey, id)
	}
	return job
}

// foldedJob is the per-job summary of a record stream: the submit that
// created it plus whatever terminal signal followed.
type foldedJob struct {
	submit    journal.Record
	cancelled bool
	rejected  bool
	complete  *journal.Record
}

// adoptable reports whether Adopt installs the job: not voided, and not
// cancelled before the peer died short of a terminal record — such a job
// has nothing to run and nothing to serve.
func (f *foldedJob) adoptable() bool {
	return !f.rejected && (f.complete != nil && f.complete.State.Terminal() || !f.cancelled)
}

// Adoptable reports whether recs fold job id into one Adopt installs,
// unless the server already knows it.
func Adoptable(recs []journal.Record, id string) bool {
	byID, _ := foldRecords(recs)
	f, ok := byID[id]
	return ok && f.adoptable()
}

// foldRecords collapses a journal record stream into one foldedJob per
// job ID, in first-submit order. Rejects and forgets void the submit:
// replay drops the job entirely (it was never admitted, or another node
// owns it now).
func foldRecords(recs []journal.Record) (byID map[string]*foldedJob, order []string) {
	byID = make(map[string]*foldedJob)
	for i := range recs {
		r := recs[i]
		switch r.Kind {
		case journal.KindSubmit:
			if r.Spec == nil {
				continue
			}
			if _, ok := byID[r.ID]; ok {
				continue
			}
			byID[r.ID] = &foldedJob{submit: r}
			order = append(order, r.ID)
		case journal.KindCancel:
			if f, ok := byID[r.ID]; ok {
				f.cancelled = true
			}
		case journal.KindReject, journal.KindForget:
			if f, ok := byID[r.ID]; ok {
				f.rejected = true
			}
		case journal.KindComplete:
			if f, ok := byID[r.ID]; ok && f.complete == nil {
				f.complete = &recs[i]
			}
		}
	}
	return byID, order
}

func parseRecordTime(v string, fallback time.Time) time.Time {
	if t, err := time.Parse(time.RFC3339Nano, v); err == nil {
		return t
	}
	return fallback
}

// appendJournal writes one record, durably when durable is set (the
// caller blocks until the record is fsynced). Journal failures degrade
// durability, not availability: they are counted and the job proceeds.
func (s *Server) appendJournal(rec journal.Record, durable bool) {
	if s.journal == nil {
		return
	}
	rec.Time = time.Now().UTC().Format(time.RFC3339Nano)
	var err error
	if durable {
		err = s.journal.Append(rec)
	} else {
		err = s.journal.AppendAsync(rec)
	}
	if err != nil {
		s.journalErrors.Inc()
		return
	}
	s.journalRecords.Inc()
}

// AppendRecord journals one record on behalf of the cluster layer (steal
// grants carry fencing tokens that must be recoverable). Durable appends
// block until the record is fsynced. Like every journal write, failures
// degrade durability, not availability.
func (s *Server) AppendRecord(rec journal.Record, durable bool) {
	s.appendJournal(rec, durable)
}

// MaxFence returns the highest fencing token the journal replay saw, so
// the cluster layer's grant counter resumes above every token ever
// issued by this node.
func (s *Server) MaxFence() uint64 { return s.maxFence }

// JournalErr returns the journal's sticky write error ("" state = nil):
// non-nil means this node can no longer persist submissions.
func (s *Server) JournalErr() error {
	if s.journal == nil {
		return nil
	}
	return s.journal.Err()
}

// Metrics exposes the registry (for /metrics and tests).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Ready reports whether the server admits new jobs (false while
// draining, shutting down, or once the journal has hit a sticky write
// error and can no longer persist submissions) — the /readyz signal.
func (s *Server) Ready() bool { return !s.draining.Load() && s.JournalErr() == nil }

// RecoveredJobs reports how many unfinished jobs the journal replay
// re-enqueued at startup.
func (s *Server) RecoveredJobs() int { return int(s.jobsRecovered.Value()) }

// Drain stops admitting new jobs and waits until every queued or running
// job is terminal, or ctx expires. On a clean drain it returns nil; on
// ctx expiry it returns the remaining job count wrapped in an error —
// with a journal attached those jobs are journaled as incomplete and
// re-run after restart, so stopping anyway loses nothing.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		if n := s.activeJobs(); n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: drain: %d jobs still active: %w", s.activeJobs(), context.Cause(ctx))
		case <-t.C:
		}
	}
}

// activeJobs counts non-terminal jobs.
func (s *Server) activeJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			n++
		}
	}
	return n
}

// Close stops admission, cancels every remaining job with the
// ErrShuttingDown cause (clients polling them see "shutting down"),
// stops the workers and waits for them, then syncs and closes the
// journal. Jobs aborted here are deliberately NOT journaled as complete:
// on the next start the journal replays them as unfinished and re-runs
// them.
func (s *Server) Close() {
	s.draining.Store(true)
	s.stop(ErrShuttingDown)
	s.mu.Lock()
	s.wake.Broadcast() // idle workers see baseCtx done and exit
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.queue, s.handoff = nil, nil
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && !j.State.Terminal() {
			s.finishLocked(j, api.StateCancelled, "shutting down", nil, false)
		}
	}
	s.mu.Unlock()
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.journalErrors.Inc()
		}
	}
}

// Submit validates and enqueues a job. It returns the job with state
// queued, or an error (ErrQueueFull when the pool is saturated,
// ErrDraining when the server has stopped admitting).
func (s *Server) Submit(spec api.JobSpec) (*Job, error) {
	job, _, err := s.SubmitIdem("", spec)
	return job, err
}

// SubmitIdem is Submit with an optional client idempotency key: a key that
// was already accepted returns the existing job (deduped=true) instead of
// creating a duplicate — the contract that makes retrying a POST whose
// response was lost safe. An empty key never dedupes.
//
// With a journal attached, the submit record is fsynced before the job
// is acknowledged, so an accepted job survives a crash.
func (s *Server) SubmitIdem(key string, spec api.JobSpec) (job *Job, deduped bool, err error) {
	return s.submit("", key, spec)
}

// SubmitWithID is SubmitIdem with a caller-chosen job ID — the cluster
// layer's entry point: the owning node replicates the (id, key, spec)
// submit record to its follower before admitting the job, so the ID that
// survives a node death is the ID that ran. An id this server already
// knows returns the existing job (deduped=true). The key is recorded for
// future client replays but NOT consulted for dedupe here (see submit).
func (s *Server) SubmitWithID(id, key string, spec api.JobSpec) (job *Job, deduped bool, err error) {
	return s.submit(id, key, spec)
}

// submit admits one job: validation, draining, dedupe, the queue bound,
// then the job enters the table and the run queue together and its
// submit record is journaled durably. An empty id draws a fresh job ID.
// An id this server already knows returns the existing job
// (deduped=true); with an EMPTY id, so does a non-empty key that was
// already accepted.
//
// A caller-chosen id deliberately bypasses the key dedupe: identity is
// by ID. A stolen job may share its idempotency key with a local
// duplicate admitted during an ownership flip, but its ID is the one the
// submitting client holds — diverting the admission onto the duplicate
// would let the steal ack erase the only copy of that ID cluster-wide. A
// duplicate run is byte-identical; a lost ID is a 404 forever.
func (s *Server) submit(id, key string, spec api.JobSpec) (job *Job, deduped bool, err error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if s.draining.Load() {
		return nil, false, ErrDraining
	}
	callerID := id != ""
	if !callerID {
		id = newJobID()
	}
	s.mu.Lock()
	prev, ok := s.jobs[id]
	if !callerID && key != "" {
		// Only a server-drawn ID consults the key table (see above). A
		// key whose job was retired is accepted as a fresh submission.
		if jid, hit := s.idem.get(key); hit {
			prev, ok = s.jobs[jid]
		}
	}
	if ok {
		s.mu.Unlock()
		s.jobsDeduped.Inc()
		// The original submission may still be fsyncing its submit
		// record; a deduped 202 makes the same durability promise, so
		// wait until the job it points at is safe.
		<-prev.durable
		return prev, true, nil
	}
	// The bound is decided before the job is published anywhere, so a
	// rejected job leaves nothing behind to roll back.
	if len(s.queue) >= s.opts.QueueDepth {
		s.mu.Unlock()
		return nil, false, ErrQueueFull
	}
	ctx, cancel := context.WithCancelCause(s.baseCtx)
	job = &Job{
		ID:      id,
		Spec:    spec,
		State:   api.StateQueued,
		Created: time.Now(),
		IdemKey: key,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		durable: make(chan struct{}),
	}
	if key != "" {
		s.idem.put(key, id)
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.retireOldLocked()
	s.pushLocked(job)
	s.mu.Unlock()

	// Durable before the 202: once the client sees it the job must
	// survive a crash. A worker that pops the job first waits on
	// job.durable and TakeQueued skips it until then, so no start, grant
	// or forget record can precede this submit record.
	s.appendJournal(journal.Record{
		Kind:    journal.KindSubmit,
		ID:      id,
		IdemKey: key,
		Spec:    &spec,
	}, true)
	close(job.durable)
	s.jobsSubmitted.Inc()
	return job, false, nil
}

// LookupIdem returns the live job an idempotency key maps to, if any,
// marking the key recently used. The cluster layer checks it before
// replicating a submit record, so a client replay does not plant a
// phantom job in the follower's replica.
func (s *Server) LookupIdem(key string) (*Job, bool) {
	if key == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.idem.get(key)
	if !ok {
		return nil, false
	}
	j, ok := s.jobs[id]
	return j, ok
}

// QueueLen reports how many jobs are queued but not yet picked up — the
// signal work stealing uses to find hot and idle nodes.
func (s *Server) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// pushLocked hands a queued job to an idle worker, or else appends it to
// the run queue, and wakes one worker.
func (s *Server) pushLocked(j *Job) {
	if s.idle > len(s.handoff) {
		s.handoff = append(s.handoff, j)
	} else {
		s.queue = append(s.queue, j)
	}
	s.wake.Signal()
}

// dequeueLocked removes j from the run queue if it is there.
func (s *Server) dequeueLocked(j *Job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// TakeQueued removes the oldest queued job whose submit record is
// durable from the run queue, for an external executor (cluster work
// stealing). The job stays in the job table until the caller settles the
// handoff: Forget(id) once the thief holds the job durably, or Requeue if
// the handoff failed. Returns false when no such job is queued. Skipping
// a job whose submit record is still being fsynced keeps the caller's
// grant record after it, and keeps a thief from taking a job before its
// submitter could acknowledge it.
func (s *Server) TakeQueued() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, j := range s.queue {
		select {
		case <-j.durable:
		default:
			continue
		}
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		j.taken = true
		return j, true
	}
	return nil, false
}

// Requeue returns a job taken by TakeQueued to the back of the run queue
// — the steal handoff failed. A job cancelled or resolved meanwhile stays
// terminal.
func (s *Server) Requeue(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.taken {
		return
	}
	j.taken = false
	if j.State == api.StateQueued {
		s.pushLocked(j)
	}
}

// Forget removes a job taken by TakeQueued from this server entirely —
// another cluster node now owns it durably. The forget record voids the
// submit in the journal, so a replay of this node does not re-run the
// job here. (If this node crashes before the record lands, replay re-runs
// it — a duplicate execution with a byte-identical result, never a loss.)
func (s *Server) Forget(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || !j.taken || j.State != api.StateQueued {
		s.mu.Unlock()
		return false
	}
	delete(s.jobs, id)
	for i, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if j.IdemKey != "" {
		s.idem.remove(j.IdemKey, id)
	}
	j.taken = false // settled: a late Requeue is a no-op
	s.mu.Unlock()
	j.cancel(nil)
	s.appendJournal(journal.Record{Kind: journal.KindForget, ID: id}, false)
	return true
}

// Adopt folds journal records replicated from a dead cluster peer into
// this server through the install path journal replay uses: completed
// jobs keep serving their results here, unfinished jobs re-run under
// their original IDs — deterministic jobs make the re-run byte-identical.
// Jobs this server already knows, and jobs the peer voided or cancelled
// short of a terminal record, are skipped. Adoption recovers
// acknowledged work, so neither the queue bound nor draining refuses it.
// Every adopted job is journaled here, so a later crash of this node
// re-covers it too; a worker starts an adopted job only after its submit
// record is durable.
func (s *Server) Adopt(recs []journal.Record) (requeued, completed int) {
	byID, order := foldRecords(recs)
	now := time.Now()
	var pending, done []*Job
	s.mu.Lock()
	for _, id := range order {
		f := byID[id]
		if _, known := s.jobs[id]; known || !f.adoptable() {
			continue
		}
		if j := s.installLocked(id, f, now, make(chan struct{})); j.State.Terminal() {
			done = append(done, j)
		} else {
			pending = append(pending, j)
		}
	}
	s.retireOldLocked()
	s.mu.Unlock()
	// ID, Spec and IdemKey never change after install, nor does anything
	// of a terminal job, so the records are built without the lock.
	for _, j := range pending {
		spec := j.Spec
		s.appendJournal(journal.Record{Kind: journal.KindSubmit, ID: j.ID, IdemKey: j.IdemKey, Spec: &spec}, true)
		close(j.durable)
	}
	s.jobsSubmitted.Add(int64(len(pending)))
	for _, j := range done {
		spec := j.Spec
		s.appendJournal(journal.Record{Kind: journal.KindSubmit, ID: j.ID, IdemKey: j.IdemKey, Spec: &spec}, false)
		s.appendJournal(journal.Record{
			Kind: journal.KindComplete, ID: j.ID, State: j.State, Error: j.Err, Result: j.Result,
		}, false)
	}
	return len(pending), len(done)
}

// Resolve finishes a still-queued job with a result computed elsewhere —
// the rejoin-resync path: a healed node learns that its adopter already
// ran the job (to byte-identical output, jobs being deterministic) and
// settles the local copy instead of re-running it. The terminal state is
// journaled like a local completion. Returns false when the job is
// unknown, already running or terminal, or mid-steal — those copies
// finish on their own.
func (s *Server) Resolve(id string, state api.JobState, errMsg string, res *api.JobResult) bool {
	if !state.Terminal() {
		return false
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || j.taken || j.State != api.StateQueued {
		s.mu.Unlock()
		return false
	}
	s.dequeueLocked(j)
	s.finishLocked(j, state, errMsg, res)
	s.mu.Unlock()
	j.cancel(nil)
	return true
}

// ExportRecords snapshots the retained job table as a journal record
// stream: one submit per job, plus the completion for terminal jobs. It
// is the canonical full-history payload the cluster layer pushes when a
// follower's replica has diverged and must be rebuilt from scratch.
func (s *Server) ExportRecords() []journal.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := make([]journal.Record, 0, 2*len(s.order))
	for _, id := range s.order {
		j, ok := s.jobs[id]
		if !ok {
			continue
		}
		spec := j.Spec
		recs = append(recs, journal.Record{
			Kind:    journal.KindSubmit,
			ID:      j.ID,
			Time:    j.Created.UTC().Format(time.RFC3339Nano),
			IdemKey: j.IdemKey,
			Spec:    &spec,
		})
		if j.State.Terminal() {
			recs = append(recs, journal.Record{
				Kind:   journal.KindComplete,
				ID:     j.ID,
				Time:   j.Finished.UTC().Format(time.RFC3339Nano),
				State:  j.State,
				Error:  j.Err,
				Result: j.Result,
			})
		}
	}
	return recs
}

// NewJobID draws a fresh job ID — exported so the cluster layer can
// assign the ID it replicates before the job exists anywhere.
func NewJobID() string { return newJobID() }

// keepJobs bounds how many terminal jobs are retained for polling before
// the oldest are forgotten.
const keepJobs = 1024

// retireOldLocked drops the oldest terminal jobs beyond the retention
// bound so the job table cannot grow without limit.
func (s *Server) retireOldLocked() {
	for len(s.order) > keepJobs {
		dropped := false
		for i, id := range s.order {
			if j, ok := s.jobs[id]; ok && j.State.Terminal() {
				delete(s.jobs, id)
				if j.IdemKey != "" {
					s.idem.remove(j.IdemKey, id)
				}
				s.order = append(s.order[:i], s.order[i+1:]...)
				dropped = true
				break
			}
		}
		if !dropped {
			return // everything live; keep them all
		}
	}
}

// Job returns the job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel moves a queued job straight to cancelled, out of the run queue,
// or cancels the context of a running one (its worker then marks it
// cancelled). Cancelling a terminal job is a no-op. The second return
// reports whether the job exists.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	running := j.State == api.StateRunning
	switch j.State {
	case api.StateQueued:
		s.dequeueLocked(j)
		s.finishLocked(j, api.StateCancelled, "cancelled while queued", nil, true)
	case api.StateRunning:
		// The worker observes the cancellation at the next point
		// boundary and finishes the job itself.
	}
	s.mu.Unlock()
	if running {
		// Journal the intent: if the process dies before the worker
		// writes the complete record, replay marks the job cancelled
		// instead of re-running it.
		s.appendJournal(journal.Record{Kind: journal.KindCancel, ID: id}, false)
	}
	j.cancel(errJobCancelled)
	return j, true
}

// Status snapshots a job as its API representation.
func (s *Server) Status(j *Job, includeResult bool) api.JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := api.JobStatus{
		ID:      j.ID,
		State:   j.State,
		Spec:    j.Spec,
		Error:   j.Err,
		Created: j.Created.UTC().Format(time.RFC3339Nano),
	}
	if !j.Started.IsZero() {
		st.Started = j.Started.UTC().Format(time.RFC3339Nano)
	}
	if !j.Finished.IsZero() {
		st.Finished = j.Finished.UTC().Format(time.RFC3339Nano)
	}
	if includeResult {
		st.Result = j.Result
	}
	return st
}

// Jobs snapshots every retained job in submission order.
func (s *Server) Jobs() []api.JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]api.JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.Job(id); ok {
			out = append(out, s.Status(j, false))
		}
	}
	return out
}

// Wait blocks until the job is terminal or ctx expires.
func (s *Server) Wait(ctx context.Context, j *Job) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// worker is the pool loop: one goroutine per worker slot. It takes a job
// handed to it before the run queue's oldest, and waits for the job's
// submit record to be durable before its start record. A job cancelled
// or resolved while handed over is skipped by runJob.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.handoff) == 0 && len(s.queue) == 0 && s.baseCtx.Err() == nil {
			s.idle++
			s.wake.Wait()
			s.idle--
		}
		if s.baseCtx.Err() != nil {
			s.mu.Unlock()
			return
		}
		next := &s.queue
		if len(s.handoff) > 0 {
			next = &s.handoff
		}
		job := (*next)[0]
		(*next)[0] = nil
		*next = (*next)[1:]
		s.mu.Unlock()
		<-job.durable
		s.runJob(job)
	}
}

// runJob executes one job and records its terminal state.
func (s *Server) runJob(job *Job) {
	s.mu.Lock()
	if job.State != api.StateQueued { // cancelled or resolved since the pop
		s.mu.Unlock()
		return
	}
	job.State = api.StateRunning
	job.Started = time.Now()
	s.queueWaitSeconds.Observe(job.Started.Sub(job.Created).Seconds())
	s.mu.Unlock()
	s.running.Inc()
	defer s.running.Dec()
	s.appendJournal(journal.Record{Kind: journal.KindStart, ID: job.ID}, false)

	timeout := s.opts.JobTimeout
	if job.Spec.TimeoutSec > 0 {
		timeout = time.Duration(job.Spec.TimeoutSec * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(job.ctx, timeout)
	defer cancel()

	start := time.Now()
	res, err := s.executeSafe(ctx, job.Spec)
	elapsed := time.Since(start)
	s.jobSeconds.Observe(elapsed.Seconds())
	if res != nil {
		res.ElapsedSec = elapsed.Seconds()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case err == nil:
		s.finishLocked(job, api.StateDone, "", res)
	case errors.Is(err, ErrShuttingDown):
		// Not journaled as complete: the job replays as unfinished and
		// re-runs after restart.
		s.finishLocked(job, api.StateCancelled, "shutting down", nil, false)
	case errors.Is(err, errJobCancelled):
		s.finishLocked(job, api.StateCancelled, "cancelled", nil)
	case errors.Is(err, context.DeadlineExceeded):
		s.finishLocked(job, api.StateFailed, fmt.Sprintf("timeout after %s", timeout), nil)
	default:
		s.finishLocked(job, api.StateFailed, err.Error(), nil)
	}
}

// executeSafe runs the job execution path behind a panic barrier: a
// panicking evaluator fails that one job — the error carries the panic
// value and stack — instead of killing the daemon and every other job
// with it.
func (s *Server) executeSafe(ctx context.Context, spec api.JobSpec) (res *api.JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			res = nil
			err = fmt.Errorf("job panicked: %v\n\n%s", r, debug.Stack())
		}
	}()
	if s.execOverride != nil {
		return s.execOverride(ctx, spec)
	}
	return s.execute(ctx, spec)
}

// finishLocked moves a job to a terminal state exactly once. The
// optional persist flag (default true) controls whether the transition
// is journaled; shutdown aborts pass false so the journal replays the
// job as unfinished.
func (s *Server) finishLocked(j *Job, state api.JobState, msg string, res *api.JobResult, persist ...bool) {
	if j.State.Terminal() {
		return
	}
	j.State = state
	j.Err = msg
	j.Result = res
	j.Finished = time.Now()
	s.e2eSeconds.Observe(j.Finished.Sub(j.Created).Seconds())
	close(j.done)
	switch state {
	case api.StateDone:
		s.jobsDone.Inc()
	case api.StateFailed:
		s.jobsFailed.Inc()
	case api.StateCancelled:
		s.jobsCancelled.Inc()
	}
	if len(persist) > 0 && !persist[0] {
		return
	}
	s.appendJournal(journal.Record{
		Kind:   journal.KindComplete,
		ID:     j.ID,
		State:  state,
		Error:  msg,
		Result: res,
	}, false)
}

func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: job id entropy: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}
