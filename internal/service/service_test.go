package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mrts/internal/exp"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
	"mrts/internal/workload"
)

// testWorkload is tiny (2 frames) so every test runs real simulations in
// milliseconds.
var testWorkload = api.WorkloadSpec{Frames: 2, Seed: 1}

func newTestServer(t *testing.T, opts Options) (*Server, *client.Client) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, client.New(ts.URL)
}

func TestEndpointErrors(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	base := c.Addrs()[0]

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := []struct {
		name string
		do   func() *http.Response
		code int
		want string // substring of the error body
	}{
		{"malformed JSON", func() *http.Response { return post("/v1/jobs", "{not json") }, 400, "invalid job spec"},
		{"unknown type", func() *http.Response { return post("/v1/jobs", `{"type":"nope"}`) }, 400, "unknown job type"},
		{"unknown policy", func() *http.Response {
			return post("/v1/jobs", `{"type":"sim","policy":"nope"}`)
		}, 400, "unknown policy"},
		{"unknown fig", func() *http.Response { return post("/v1/jobs", `{"type":"fig","fig":"42"}`) }, 400, "unknown fig"},
		{"negative fabric", func() *http.Response {
			return post("/v1/jobs", `{"type":"sim","prc":-1}`)
		}, 400, "negative"},
		{"empty sweep job", func() *http.Response { return post("/v1/jobs", `{"type":"sweep"}`) }, 400, "at least one point"},
		{"unknown job", func() *http.Response {
			resp, err := http.Get(base + "/v1/jobs/jdeadbeef")
			if err != nil {
				t.Fatal(err)
			}
			return resp
		}, 404, "unknown job"},
		{"cancel unknown job", func() *http.Response { return post("/v1/jobs/jdeadbeef/cancel", "") }, 404, "unknown job"},
		{"malformed sweep", func() *http.Response { return post("/v1/sweep", "][") }, 400, "invalid sweep"},
		{"empty sweep", func() *http.Response { return post("/v1/sweep", `{"points":[]}`) }, 400, "at least one point"},
		{"sweep bad policy", func() *http.Response {
			return post("/v1/sweep", `{"points":[{"prc":1,"cg":1,"policy":"zap"}]}`)
		}, 400, "unknown policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := tc.do()
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.code {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.code, body)
			}
			var e api.ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Errorf("error %q does not contain %q", e.Error, tc.want)
			}
		})
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	if err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mrts_jobs_submitted_total", "mrts_result_cache_hits_total",
		"mrts_queue_depth", "mrts_jobs_running",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %s:\n%s", want, text)
		}
	}
}

func TestSimJobLifecycle(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	spec := api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 2, CG: 1, Policy: "mrts"}
	id, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Wait(ctx, id, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("state = %s (%s), want done", st.State, st.Error)
	}
	r := st.Result.Report
	if r == nil {
		t.Fatal("done sim job has no report")
	}
	if r.Policy != "mRTS" || r.PRC != 2 || r.CG != 1 {
		t.Errorf("report identity wrong: %+v", r)
	}
	if r.TotalCycles <= 0 || r.RISCCycles < r.TotalCycles {
		t.Errorf("implausible cycles: total %d, risc %d", r.TotalCycles, r.RISCCycles)
	}
	if r.Speedup < 1 {
		t.Errorf("mRTS speedup %.2f < 1", r.Speedup)
	}
	// The same encoding mrts-sim -o writes.
	if _, err := api.MarshalIndentReport(r); err != nil {
		t.Errorf("report not marshalable: %v", err)
	}
	// The job list includes it as terminal.
	jobs, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != id || jobs[0].State != api.StateDone {
		t.Errorf("job list wrong: %+v", jobs)
	}
}

func TestFigJobMatchesOfflineSweep(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()

	// The offline harness, directly.
	w, err := workload.Build(testWorkload.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := exp.Fig8(ctx, exp.DirectEvaluator(w), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wantText bytes.Buffer
	want.Render(&wantText)

	// The same figure through the service, twice.
	spec := api.JobSpec{Type: api.JobFig, Fig: "8", Workload: testWorkload, MaxPRC: 1, MaxCG: 1}
	first, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != api.StateDone {
		t.Fatalf("first: %s (%s)", first.State, first.Error)
	}
	if first.Result.Text != wantText.String() {
		t.Errorf("service fig8 differs from offline render:\n--- service ---\n%s--- offline ---\n%s",
			first.Result.Text, wantText.String())
	}
	second, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if second.Result.Text != first.Result.Text {
		t.Error("second submission not byte-identical")
	}
	// 3 combos x 4 policies + RISC = 13 points, all cached on the rerun.
	if second.Result.CacheMisses != 0 {
		t.Errorf("second submission had %d cache misses", second.Result.CacheMisses)
	}
	if second.Result.CacheHits < 13 {
		t.Errorf("second submission hits = %d, want >= 13", second.Result.CacheHits)
	}
}

func TestCacheHitOnRepeatMissOnNewSeed(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	spec := api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 1, CG: 1, Policy: "mrts"}
	first, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.CacheHits != 0 || first.Result.CacheMisses == 0 {
		t.Errorf("cold job: hits %d misses %d", first.Result.CacheHits, first.Result.CacheMisses)
	}

	repeat, err := c.Run(ctx, spec, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if repeat.Result.CacheMisses != 0 || repeat.Result.CacheHits == 0 {
		t.Errorf("repeated point not a pure hit: hits %d misses %d",
			repeat.Result.CacheHits, repeat.Result.CacheMisses)
	}
	if repeat.Result.Report.TotalCycles != first.Result.Report.TotalCycles {
		t.Error("cached report differs from the original")
	}

	changed := spec
	changed.Workload.Seed = 7
	cold, err := c.Run(ctx, changed, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Result.CacheMisses == 0 {
		t.Error("changed seed should miss the cache")
	}
}

// slowSweepSpec is a sweep job with enough points, on a long enough
// workload, that it is still running when the test cancels it: the job's
// run time is the window a loaded host must schedule the test within.
func slowSweepSpec() api.JobSpec {
	var points []api.Point
	for i := 0; i < 200; i++ {
		// Every point is a distinct fabric combination, so none of them
		// can be served from the report memo — the job must simulate.
		points = append(points, api.Point{PRC: 1 + i%20, CG: 1 + i/20, Policy: "mrts"})
	}
	return api.JobSpec{Type: api.JobSweep, Workload: api.WorkloadSpec{Frames: 8, Seed: 99}, Points: points}
}

func TestCancelRunningJobFreesWorkerSlot(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	// One worker: jobA occupies the slot, jobB waits in the queue.
	idA, err := c.Submit(ctx, slowSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	idB, err := c.Submit(ctx, api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 1, CG: 1, Policy: "mrts"})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until A is actually running (B queued behind it).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Job(ctx, idA)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == api.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job A stuck in %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := scrape(s, "mrts_queue_depth"); got != 1 {
		t.Errorf("queue depth = %d with one job queued, want 1", got)
	}

	st, err := c.Cancel(ctx, idA)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateRunning && !st.State.Terminal() {
		t.Fatalf("cancel returned state %s", st.State)
	}
	// A reaches the cancelled terminal state, freeing the slot for B.
	stA, err := c.Wait(ctx, idA, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stA.State != api.StateCancelled {
		t.Fatalf("job A state = %s, want cancelled", stA.State)
	}
	stB, err := c.Wait(ctx, idB, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stB.State != api.StateDone {
		t.Fatalf("job B state = %s (%s), want done after slot freed", stB.State, stB.Error)
	}
	if got := scrape(s, "mrts_queue_depth"); got != 0 {
		t.Errorf("queue depth = %d after drain, want 0", got)
	}
	if got := s.metrics.Counter("mrts_jobs_cancelled_total").Value(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
}

func TestCancelQueuedJobIsImmediatelyTerminal(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()

	idA, err := c.Submit(ctx, slowSweepSpec())
	if err != nil {
		t.Fatal(err)
	}
	idB, err := c.Submit(ctx, api.JobSpec{Type: api.JobSim, Workload: testWorkload, PRC: 1, CG: 1, Policy: "mrts"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Cancel(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled", st.State)
	}
	if _, err := c.Cancel(ctx, idA); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, idA, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Cancelling a terminal job is a no-op that reports the final state.
	again, err := c.Cancel(ctx, idB)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != api.StateCancelled {
		t.Errorf("re-cancel state = %s", again.State)
	}
}

func TestSweepStreamEvents(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()

	req := api.SweepRequest{
		Workload: testWorkload,
		Points: []api.Point{
			{PRC: 1, CG: 0, Policy: "mrts"},
			{PRC: 0, CG: 1, Policy: "mrts"},
			{PRC: 1, CG: 1, Policy: "rispp"},
		},
	}
	var events []api.SweepEvent
	final, err := c.Sweep(ctx, req, func(ev api.SweepEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || final.Completed != 3 || final.Failed != 0 {
		t.Fatalf("events %d, final %+v", len(events), final)
	}
	for _, ev := range events {
		if ev.Report == nil || ev.Report.TotalCycles <= 0 {
			t.Errorf("event %d has no usable report", ev.Index)
		}
		if ev.Cached {
			t.Errorf("first sweep reported point %d as cached", ev.Index)
		}
	}
	// The identical sweep is served from the cache.
	events = nil
	if _, err = c.Sweep(ctx, req, func(ev api.SweepEvent) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Errorf("repeat sweep point %d not cached", ev.Index)
		}
	}
}

func TestQueueFull(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	if _, err := c.Submit(ctx, slowSweepSpec()); err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot, then overflow it. The first submission
	// may still be waiting for the worker, so allow one extra success.
	var sawFull bool
	for i := 0; i < 3 && !sawFull; i++ {
		_, err := c.Submit(ctx, api.JobSpec{Type: api.JobSim, Workload: testWorkload, Policy: "risc"})
		if err != nil {
			if !strings.Contains(err.Error(), "queue full") {
				t.Fatalf("unexpected error: %v", err)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Error("queue never reported full")
	}
}

// TestConcurrentSubmissionsRace hammers the pool from many goroutines;
// run with -race it exercises the job table, both caches (every job
// shares one workload) and the metrics registry.
func TestConcurrentSubmissionsRace(t *testing.T) {
	s, c := newTestServer(t, Options{Workers: 4})
	ctx := context.Background()

	const n = 24
	var wg sync.WaitGroup
	errs := make([]error, n)
	states := make([]api.JobState, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := api.JobSpec{
				Type: api.JobSim, Workload: testWorkload,
				PRC: i % 3, CG: i % 2, Policy: []string{"mrts", "rispp", "risc"}[i%3],
			}
			st, err := c.Run(ctx, spec, 2*time.Millisecond)
			if err != nil {
				errs[i] = err
				return
			}
			states[i] = st.State
			if st.State != api.StateDone {
				errs[i] = fmt.Errorf("state %s: %s", st.State, st.Error)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i, err)
		}
	}
	if got := s.metrics.Counter("mrts_jobs_done_total").Value(); got != n {
		t.Errorf("done counter = %d, want %d", got, n)
	}
	// All jobs share one workload: it must have been built exactly once.
	if got := s.workloads.Len(); got != 1 {
		t.Errorf("workload cache entries = %d, want 1", got)
	}
	if got := s.metrics.Counter("mrts_workload_cache_misses_total").Value(); got != 1 {
		t.Errorf("workload builds = %d, want 1 (singleflight)", got)
	}
}
