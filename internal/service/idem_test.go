package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrts/internal/obs"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
	"mrts/internal/service/journal"
)

func simSpec() api.JobSpec {
	return api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 1, CG: 1, Policy: "mrts"}
}

func TestSubmitIdemDedupes(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	first, deduped, err := s.SubmitIdem("key-a", simSpec())
	if err != nil || deduped {
		t.Fatalf("first submit: job %v, deduped %v, err %v", first, deduped, err)
	}
	replay, deduped, err := s.SubmitIdem("key-a", simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || replay.ID != first.ID {
		t.Errorf("replayed key got job %s (deduped %v), want original %s", replay.ID, deduped, first.ID)
	}
	other, deduped, err := s.SubmitIdem("key-b", simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if deduped || other.ID == first.ID {
		t.Errorf("distinct key deduped onto %s", other.ID)
	}
	anonA, _, err := s.SubmitIdem("", simSpec())
	if err != nil {
		t.Fatal(err)
	}
	anonB, _, err := s.SubmitIdem("", simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if anonA.ID == anonB.ID {
		t.Error("empty keys must never dedupe")
	}
	if got := s.metrics.Counter("mrts_jobs_deduped_total").Value(); got != 1 {
		t.Errorf("deduped counter = %d, want 1", got)
	}
	// Dedupe works across the whole job lifecycle: wait the original out
	// and replay again — still the same (now terminal) job.
	if err := s.Wait(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	replay, deduped, err = s.SubmitIdem("key-a", simSpec())
	if err != nil || !deduped || replay.ID != first.ID {
		t.Errorf("post-completion replay: job %s, deduped %v, err %v", replay.ID, deduped, err)
	}
}

// TestSubmitWithIDNeverDivertsOntoKeyDuplicate pins the identity-by-ID
// rule for caller-chosen job IDs: a steal handoff or adoption admitting
// job X must land on exactly X even when X's idempotency key already
// maps to a local same-key duplicate Y. Diverting onto Y used to lose X
// cluster-wide — the thief acked the grant, the victim forgot X, and
// the client polling X saw 404 forever.
func TestSubmitWithIDNeverDivertsOntoKeyDuplicate(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	dup, _, err := s.SubmitIdem("key-steal", simSpec())
	if err != nil {
		t.Fatal(err)
	}
	stolen, deduped, err := s.SubmitWithID("jstolen", "key-steal", simSpec())
	if err != nil {
		t.Fatal(err)
	}
	if deduped || stolen.ID != "jstolen" {
		t.Fatalf("explicit-ID admission got job %s (deduped %v), want jstolen — "+
			"key dedupe diverted a steal onto %s", stolen.ID, deduped, dup.ID)
	}
	// Replaying the same explicit ID IS idempotent — by ID.
	replay, deduped, err := s.SubmitWithID("jstolen", "key-steal", simSpec())
	if err != nil || !deduped || replay.ID != "jstolen" {
		t.Errorf("explicit-ID replay: job %s, deduped %v, err %v, want jstolen deduped", replay.ID, deduped, err)
	}
	// Both copies stay live and queryable — the duplicate is the
	// harmless outcome (deterministic jobs, identical bytes).
	for _, id := range []string{dup.ID, "jstolen"} {
		if _, ok := s.Job(id); !ok {
			t.Errorf("job %s vanished from the table", id)
		}
	}
}

// TestIdemTableLRUEviction pins the dedupe-table bound: beyond
// IdemTableSize the least-recently-used key is evicted (its retry is
// accepted as fresh work instead of the table growing without bound), a
// touched key survives eviction pressure, and the mrts_idem_entries gauge
// tracks the live mapping count.
func TestIdemTableLRUEviction(t *testing.T) {
	s := New(Options{Workers: 2, IdemTableSize: 3})
	defer s.Close()

	submit := func(key string) *Job {
		t.Helper()
		j, _, err := s.SubmitIdem(key, simSpec())
		if err != nil {
			t.Fatalf("submit %s: %v", key, err)
		}
		return j
	}
	first := submit("lru-0")
	submit("lru-1")
	submit("lru-2")
	// Touch lru-0 so lru-1 becomes the eviction victim.
	if j, deduped, _ := s.SubmitIdem("lru-0", simSpec()); !deduped || j.ID != first.ID {
		t.Fatalf("lru-0 replay not deduped (job %s, want %s)", j.ID, first.ID)
	}
	victim := submit("lru-1") // still present: dedupes
	submit("lru-3")           // table full: evicts lru-1 (LRU after the touch order 0,2,1,3... )

	s.mu.Lock()
	idem := s.idem.snapshot()
	n := s.idem.len()
	s.mu.Unlock()
	if n != 3 {
		t.Errorf("idem table holds %d mappings, want 3 (cap)", n)
	}
	if got := s.Metrics().Gauge("mrts_idem_entries").Value(); got != int64(n) {
		t.Errorf("mrts_idem_entries = %d, want %d", got, n)
	}
	if _, ok := idem["lru-0"]; !ok {
		t.Error("recently-touched key lru-0 was evicted")
	}
	// The evicted key's retry is accepted as a fresh submission — the
	// graceful-degradation contract of the bounded table.
	if _, evicted := idem["lru-2"]; !evicted {
		if j, deduped, err := s.SubmitIdem("lru-2", simSpec()); err != nil {
			t.Fatal(err)
		} else if deduped {
			t.Errorf("evicted key lru-2 still deduped onto job %s", j.ID)
		}
	}
	_ = victim
}

func TestSubmitIdemQueueFullRollsBack(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()

	if _, err := s.Submit(slowSweepSpec()); err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot, then overflow it; the key of the rejected
	// submission must not linger in the dedupe table (a later retry with it
	// must be accepted as fresh work, not mapped to a job that never ran).
	keys := []string{"qf-0", "qf-1", "qf-2"}
	var fullKey string
	for _, k := range keys {
		if _, _, err := s.SubmitIdem(k, simSpec()); err != nil {
			fullKey = k
			break
		}
	}
	if fullKey == "" {
		t.Fatal("queue never reported full")
	}
	s.mu.Lock()
	_, lingers := s.idem.get(fullKey)
	s.mu.Unlock()
	if lingers {
		t.Errorf("key %s of a rejected submission lingers in the dedupe table", fullKey)
	}
}

// Regression for the queue-full rollback race: with the journal fsync
// widening the window between publishing a job and (formerly) rolling it
// back, concurrent submissions against a saturated queue must leave the
// job table, listing order and dedupe table consistent — no accepted or
// deduped job may vanish or become invisible to Jobs(), and no rejected
// ID may linger anywhere.
func TestQueueFullRaceKeepsJobTableConsistent(t *testing.T) {
	j, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, QueueDepth: 2, Journal: j})
	defer s.Close()
	release := make(chan struct{})
	s.execOverride = func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &api.JobResult{}, nil
	}

	var mu sync.Mutex
	returned := make(map[string]bool) // every job ID a client was promised
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				// Even goroutines race distinct keys; odd ones share a
				// small pool so dedupe hits race the originals' fsync.
				key := fmt.Sprintf("qfr-%d-%d", g, i)
				if g%2 == 1 {
					key = fmt.Sprintf("qfr-shared-%d", i%4)
				}
				job, _, err := s.SubmitIdem(key, simSpec())
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("submit: %v", err)
					}
					continue
				}
				mu.Lock()
				returned[job.ID] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(release)

	s.mu.Lock()
	inTable := make(map[string]bool, len(s.jobs))
	for id := range s.jobs {
		inTable[id] = true
	}
	order := append([]string(nil), s.order...)
	idem := s.idem.snapshot()
	s.mu.Unlock()

	for id := range returned {
		if !inTable[id] {
			t.Errorf("job %s was returned to a client but is gone from the job table", id)
		}
	}
	inOrder := make(map[string]bool, len(order))
	for _, id := range order {
		if inOrder[id] {
			t.Errorf("job %s listed twice in submission order", id)
		}
		inOrder[id] = true
		if !inTable[id] {
			t.Errorf("order holds %s but the job table does not", id)
		}
	}
	for id := range inTable {
		if !inOrder[id] {
			t.Errorf("job %s exists but is invisible to Jobs() and retention", id)
		}
	}
	for key, id := range idem {
		if !inTable[id] {
			t.Errorf("idem key %s maps to vanished job %s", key, id)
		}
	}
}

// TestRetriedSubmitNotDuplicated is the regression test for the unsafe-POST
// bug: the daemon accepts a submission but the response is lost in
// transit, and the client's retry loop re-sends the POST. Without the
// idempotency key the daemon would run the job twice; with it the retry
// lands on the already-created job.
func TestRetriedSubmitNotDuplicated(t *testing.T) {
	s := New(Options{Workers: 2})
	t.Cleanup(s.Close)

	inner := s.Handler()
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && posts.Add(1) == 1 {
			// First attempt: the daemon processes the submission — the job
			// is really created — but the response never reaches the
			// client (connection aborted mid-response).
			inner.ServeHTTP(httptest.NewRecorder(), r)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := client.New(ts.URL)
	c.Retry = client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	id, err := c.Submit(context.Background(), simSpec())
	if err != nil {
		t.Fatalf("retried submit failed: %v", err)
	}
	if got := posts.Load(); got != 2 {
		t.Fatalf("POST attempts = %d, want 2 (dropped response, then retry)", got)
	}

	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("job table holds %d jobs after a retried submit, want exactly 1: %+v", len(jobs), jobs)
	}
	if jobs[0].ID != id {
		t.Errorf("client resolved to job %s, table holds %s", id, jobs[0].ID)
	}
	if got := s.metrics.Counter("mrts_jobs_deduped_total").Value(); got != 1 {
		t.Errorf("deduped counter = %d, want 1", got)
	}
	st, err := c.Wait(context.Background(), id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Errorf("deduped job finished %s (%s)", st.State, st.Error)
	}
}

func TestSubmitReplayMarksResponse(t *testing.T) {
	s := New(Options{Workers: 1})
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body, _ := json.Marshal(simSpec())
	post := func() *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(string(body)))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", "mark-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post()
	defer first.Body.Close()
	if first.Header.Get("Idempotent-Replayed") != "" {
		t.Error("fresh submission marked as replayed")
	}
	var a, b api.SubmitResponse
	if err := json.NewDecoder(first.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	second := post()
	defer second.Body.Close()
	if second.Header.Get("Idempotent-Replayed") != "true" {
		t.Error("replayed submission not marked")
	}
	if err := json.NewDecoder(second.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID {
		t.Errorf("replay returned %s, want original %s", b.ID, a.ID)
	}
}

// TestTraceJobCapturesDecisionTrace: a sim job with Trace set returns the
// JSONL decision trace alongside a report identical to the untraced run's
// — and the traced run's report still lands in the result cache.
func TestTraceJobCapturesDecisionTrace(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	spec := api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 2, CG: 1, Policy: "mrts"}
	plain, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if plain.State != api.StateDone {
		t.Fatalf("untraced: %s (%s)", plain.State, plain.Error)
	}
	if plain.Result.TraceJSONL != "" {
		t.Error("untraced job carries a trace")
	}

	traced := spec
	traced.Trace = true
	tr, err := c.Run(ctx, traced, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if tr.State != api.StateDone {
		t.Fatalf("traced: %s (%s)", tr.State, tr.Error)
	}
	a, _ := json.Marshal(plain.Result.Report)
	b, _ := json.Marshal(tr.Result.Report)
	if string(a) != string(b) {
		t.Errorf("traced report differs from untraced:\n%s\n%s", a, b)
	}
	events, err := obs.ReadAll(strings.NewReader(tr.Result.TraceJSONL))
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("traced job returned an empty trace")
	}
	for _, ev := range events[:min(10, len(events))] {
		if ev.Run == "" {
			t.Fatalf("trace event without run label: %+v", ev)
		}
	}

	// The traced run cached its (identical) report: an untraced replay of
	// the point is a pure hit.
	replay, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Result.CacheMisses != 0 {
		t.Errorf("replay after traced run missed the cache %d times", replay.Result.CacheMisses)
	}
}

func TestTraceOnlyForSimJobs(t *testing.T) {
	spec := api.JobSpec{Type: api.JobFig, Fig: "8", Workload: testWorkload, Trace: true}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "trace capture") {
		t.Errorf("fig job with trace validated: %v", err)
	}
}

func TestMetricsLatencyHistograms(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	if _, err := c.Run(ctx, simSpec(), 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mrts_job_queue_seconds_bucket", "mrts_job_e2e_seconds_bucket",
		"mrts_job_seconds_bucket", "mrts_point_eval_seconds_bucket",
		"mrts_jobs_deduped_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %s", want)
		}
	}
	if s.queueWaitSeconds.Count() < 1 || s.e2eSeconds.Count() < 1 {
		t.Errorf("latency histograms empty: queue %d, e2e %d",
			s.queueWaitSeconds.Count(), s.e2eSeconds.Count())
	}
}
