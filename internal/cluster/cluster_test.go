package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
)

// ---------------------------------------------------------------------------
// Ring and fingerprint unit tests
// ---------------------------------------------------------------------------

func TestFingerprintIgnoresTimeout(t *testing.T) {
	spec := api.JobSpec{Type: api.JobSim, Workload: api.WorkloadSpec{Frames: 2, Seed: 1}, PRC: 1, CG: 1, Policy: "mrts"}
	withTimeout := spec
	withTimeout.TimeoutSec = 300
	if Fingerprint(spec) != Fingerprint(withTimeout) {
		t.Error("TimeoutSec changed the fingerprint; identical work would split placement")
	}
	other := spec
	other.Workload.Seed = 2
	if Fingerprint(spec) == Fingerprint(other) {
		t.Error("different seeds collided — fingerprint ignores the workload")
	}
}

func TestRingOwnerSpreadAndFailover(t *testing.T) {
	ids := []string{"a", "b", "c"}
	r := NewRing(ids)
	all := func(string) bool { return true }
	noB := func(id string) bool { return id != "b" }

	key := func(i int) uint64 {
		sum := sha256.Sum256([]byte(strconv.Itoa(i)))
		return binary.BigEndian.Uint64(sum[:8])
	}

	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		k := key(i)
		ownerAll := r.Owner(k, all)
		counts[ownerAll]++

		// Failover invariant: killing b only moves b's keys; every other
		// key keeps its owner.
		ownerNoB := r.Owner(k, noB)
		if ownerAll != "b" && ownerNoB != ownerAll {
			t.Fatalf("key %d moved from %s to %s although its owner stayed alive", i, ownerAll, ownerNoB)
		}
		if ownerAll == "b" && (ownerNoB == "b" || ownerNoB == "") {
			t.Fatalf("key %d still owned by dead member (got %q)", i, ownerNoB)
		}
	}
	for _, id := range ids {
		if counts[id] < keys/10 {
			t.Errorf("member %s owns only %d of %d keys — spread far from uniform", id, counts[id], keys)
		}
	}
	if got := r.Owner(key(0), func(string) bool { return false }); got != "" {
		t.Errorf("no member alive, Owner = %q, want empty", got)
	}
	if got := NewRing(nil).Owner(key(0), all); got != "" {
		t.Errorf("empty ring, Owner = %q, want empty", got)
	}
}

// ---------------------------------------------------------------------------
// In-process multi-node harness
// ---------------------------------------------------------------------------

// swapHandler lets the harness create the HTTP listeners (and learn their
// addresses) before the nodes that serve them exist, and later simulate a
// node death by swapping in a hard-down handler.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node starting", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type testCluster struct {
	t     *testing.T
	ids   []string
	urls  map[string]string
	nodes map[string]*Node
	srvs  map[string]*service.Server
	swaps map[string]*swapHandler
}

// startCluster brings up an in-process cluster: one httptest listener,
// service.Server and Node per member, all sharing the same member list.
// Probes run every 50ms with DeadAfter 2, so a killed node is declared
// dead within ~150ms. Stealing is disabled unless a test enables it.
func startCluster(t *testing.T, ids []string, sopts func(id string) service.Options, tweak func(id string, c *Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		t: t, ids: ids,
		urls:  make(map[string]string),
		nodes: make(map[string]*Node),
		srvs:  make(map[string]*service.Server),
		swaps: make(map[string]*swapHandler),
	}
	var members []Member
	var webs []*httptest.Server
	for _, id := range ids {
		sw := &swapHandler{}
		web := httptest.NewServer(sw)
		webs = append(webs, web)
		tc.swaps[id] = sw
		tc.urls[id] = web.URL
		members = append(members, Member{ID: id, Addr: web.URL})
	}
	t.Cleanup(func() {
		for _, id := range ids {
			if n := tc.nodes[id]; n != nil {
				n.Close()
			}
		}
		for _, id := range ids {
			if s := tc.srvs[id]; s != nil {
				s.Close()
			}
		}
		for _, w := range webs {
			w.Close()
		}
	})
	for _, id := range ids {
		opts := service.Options{Workers: 2}
		if sopts != nil {
			opts = sopts(id)
		}
		opts.Node = id
		srv := service.New(opts)
		tc.srvs[id] = srv
		cfg := Config{
			Self:            id,
			Members:         members,
			ProbeInterval:   50 * time.Millisecond,
			DeadAfter:       2,
			StealInterval:   -1,
			StealAckTimeout: time.Second,
			HTTPClient:      &http.Client{Timeout: 2 * time.Second},
		}
		if tweak != nil {
			tweak(id, &cfg)
		}
		node, err := New(cfg, srv)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes[id] = node
		tc.swaps[id].set(node.Handler())
	}
	return tc
}

// kill simulates a hard node death for the rest of the cluster: every
// request — probes included — answers 503 from here on. The node's own
// goroutines keep running (like a partitioned process would).
func (tc *testCluster) kill(id string) {
	tc.swaps[id].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "killed", http.StatusServiceUnavailable)
	}))
}

// getJob GETs /v1/jobs/{id} on one member (the public, fanning-out path).
func (tc *testCluster) getJob(url, id string) (*api.JobStatus, int, error) {
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, resp.StatusCode, nil
	}
	var st api.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, resp.StatusCode, err
	}
	return &st, resp.StatusCode, nil
}

// localHas reports whether a member holds the job in its own table
// (strictly-local endpoint, no fan-out).
func (tc *testCluster) localHas(id, jobID string) bool {
	resp, err := http.Get(tc.urls[id] + "/cluster/v1/jobs/" + jobID)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// waitDone polls one member until the job reaches done, tolerating 503s
// (adoption windows) and transient errors until the deadline.
func (tc *testCluster) waitDone(url, id string, timeout time.Duration) *api.JobStatus {
	tc.t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		st, code, err := tc.getJob(url, id)
		switch {
		case err != nil:
			last = err.Error()
		case st == nil:
			last = fmt.Sprintf("HTTP %d", code)
		case st.State == api.StateDone:
			return st
		case st.State.Terminal():
			tc.t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		default:
			last = string(st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	tc.t.Fatalf("job %s not done after %v (last: %s)", id, timeout, last)
	return nil
}

// fakeExec is the deterministic instant executor tests inject: the text
// depends only on the spec, so re-runs anywhere are byte-identical.
func fakeExec(_ context.Context, spec api.JobSpec) (*api.JobResult, error) {
	return &api.JobResult{Text: fmt.Sprintf("fake %s prc=%d cg=%d seed=%d\n",
		spec.Type, spec.PRC, spec.CG, spec.Workload.Seed)}, nil
}

// specOwnedBy searches seeds until the spec's fingerprint lands on the
// wanted owner, so tests can aim submissions at a specific member.
func specOwnedBy(t *testing.T, n *Node, owner string, seedBase uint64) api.JobSpec {
	t.Helper()
	for seed := seedBase; seed < seedBase+10_000; seed++ {
		s := api.JobSpec{
			Type: api.JobSim, Workload: api.WorkloadSpec{Frames: 2, Seed: seed},
			PRC: 1, CG: 1, Policy: "mrts",
		}
		if n.Owner(Fingerprint(s)) == owner {
			return s
		}
	}
	t.Fatalf("no seed in [%d,%d) hashes to member %s", seedBase, seedBase+10_000, owner)
	return api.JobSpec{}
}

// payload extracts the deterministic part of a result (Text, Report or
// Reports) — the bytes that must match across cluster and plain server.
func payload(t *testing.T, st *api.JobStatus) string {
	t.Helper()
	if st.Result == nil {
		t.Fatalf("job %s has no result", st.ID)
	}
	switch {
	case st.Result.Text != "":
		return st.Result.Text
	case st.Result.Report != nil:
		b, err := api.MarshalIndentReport(st.Result.Report)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	default:
		b, err := json.Marshal(st.Result.Reports)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
}

// ---------------------------------------------------------------------------
// Single-node cluster == plain server, byte for byte, for every job type
// ---------------------------------------------------------------------------

func TestSingleNodeClusterMatchesPlainServer(t *testing.T) {
	w := api.WorkloadSpec{Frames: 2, Seed: 1}
	specs := []api.JobSpec{
		{Type: api.JobSim, Workload: w, PRC: 1, CG: 1, Policy: "mrts"},
		{Type: api.JobSim, Workload: w, PRC: 2, CG: 1, Policy: "mrts",
			Faults: &api.FaultSpec{Seed: 7, FailCG: 1}},
		{Type: api.JobFig, Workload: w, Fig: "8", MaxPRC: 2, MaxCG: 2},
		{Type: api.JobFig, Workload: w, Fig: "faults"},
		{Type: api.JobFig, Workload: w, Fig: "tenants", MaxPRC: 2, MaxCG: 2, Tenants: 2, Mix: "skewed"},
		{Type: api.JobSweep, Workload: w, Points: []api.Point{
			{PRC: 1, CG: 1, Policy: "mrts"},
			{PRC: 2, CG: 2, Policy: "mrts"},
		}},
	}

	// Reference: the plain, cluster-free server.
	ref := service.New(service.Options{Workers: 2})
	defer ref.Close()
	want := make([]string, len(specs))
	for i, spec := range specs {
		job, err := ref.Submit(spec)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		if err := ref.Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		st := ref.Status(job, true)
		if st.State != api.StateDone {
			t.Fatalf("reference job %d = %s (%s)", i, st.State, st.Error)
		}
		want[i] = payload(t, &st)
	}

	tc := startCluster(t, []string{"solo"}, nil, nil)
	c := client.New(tc.urls["solo"])
	ctx := context.Background()
	for i, spec := range specs {
		id, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("cluster submit %d: %v", i, err)
		}
		st := tc.waitDone(tc.urls["solo"], id, 30*time.Second)
		if got := payload(t, st); got != want[i] {
			t.Errorf("spec %d (%s %s): single-node cluster diverged from plain server\n got: %q\nwant: %q",
				i, spec.Type, spec.Fig, got, want[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Routing: a submission through any member lands on the ring owner
// ---------------------------------------------------------------------------

func TestSubmitRoutesToRingOwner(t *testing.T) {
	ids := []string{"a", "b", "c"}
	tc := startCluster(t, ids,
		func(id string) service.Options {
			return service.Options{Workers: 2, ExecOverride: fakeExec}
		}, nil)

	spec := specOwnedBy(t, tc.nodes["a"], "c", 1)
	// Sanity: every member computes the same owner from the shared ring.
	for _, id := range ids {
		if got := tc.nodes[id].Owner(Fingerprint(spec)); got != "c" {
			t.Fatalf("node %s routes the spec to %s, want c", id, got)
		}
	}

	// Submit through a NON-owner; the client follows the 307 to the owner.
	c := client.New(tc.urls["a"])
	id, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("submit via non-owner: %v", err)
	}
	st := tc.waitDone(tc.urls["b"], id, 10*time.Second)
	if want := "fake sim prc=1 cg=1 seed=" + strconv.FormatUint(spec.Workload.Seed, 10) + "\n"; st.Result.Text != want {
		t.Errorf("result = %q, want %q", st.Result.Text, want)
	}

	// The job lives on the owner and nowhere else.
	if !tc.localHas("c", id) {
		t.Error("owner c does not hold the job locally")
	}
	if tc.localHas("a", id) || tc.localHas("b", id) {
		t.Error("non-owner holds the job locally — routing leaked execution")
	}
	if got := tc.srvs["a"].Metrics().Counter("mrts_cluster_redirects_total").Value(); got == 0 {
		t.Error("non-owner a answered without counting a redirect")
	}

	// Idempotent replay through a different member dedupes at the owner.
	id2, err := client.New(tc.urls["b"]).Submit(context.Background(), spec)
	if err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if id2 == id {
		t.Error("distinct idempotency keys collapsed to one job") // each Submit generates a fresh key
	}
}

// TestCancelThroughNonOwner: a cancel sent to a member that does not hold
// the job fans out to the holder's strictly-local cancel endpoint, which
// the holder serves with its wrapped server's own handler.
func TestCancelThroughNonOwner(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blockingExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	tc := startCluster(t, []string{"a", "b", "c"},
		func(id string) service.Options {
			return service.Options{Workers: 1, ExecOverride: blockingExec}
		}, nil)

	spec := specOwnedBy(t, tc.nodes["a"], "c", 1)
	ctx := context.Background()
	id, err := client.New(tc.urls["c"]).Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit at owner: %v", err)
	}
	st, err := client.New(tc.urls["a"]).Cancel(ctx, id)
	if err != nil {
		t.Fatalf("cancel through non-owner a: %v", err)
	}
	if st.ID != id {
		t.Errorf("cancel answered for job %q, want %q", st.ID, id)
	}
	wctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	final, err := client.New(tc.urls["b"]).Wait(wctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("wait through b: %v", err)
	}
	if final.State != api.StateCancelled {
		t.Errorf("job state after cancel = %s, want cancelled", final.State)
	}
	if tc.localHas("a", id) || tc.localHas("b", id) {
		t.Error("a non-owner holds the job after a proxied cancel")
	}
}

// ---------------------------------------------------------------------------
// Work stealing: an idle node drains a hot member's queue, losing nothing
// ---------------------------------------------------------------------------

func TestIdleNodeStealsQueuedWork(t *testing.T) {
	release := make(chan struct{})
	blockingExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	tc := startCluster(t, []string{"a", "b"},
		func(id string) service.Options {
			if id == "a" {
				// The hot shard: one worker, stuck on its first job.
				return service.Options{Workers: 1, ExecOverride: blockingExec}
			}
			return service.Options{Workers: 2, ExecOverride: fakeExec}
		},
		func(id string, c *Config) {
			if id == "b" {
				c.StealInterval = 25 * time.Millisecond
			}
		})

	// Four jobs owned by a: the first occupies a's only worker (blocked),
	// three sit in a's queue for b to steal.
	c := client.New(tc.urls["a"])
	ctx := context.Background()
	var jobs []string
	var specs []api.JobSpec
	for i := 0; i < 4; i++ {
		spec := specOwnedBy(t, tc.nodes["a"], "a", uint64(1+1000*i))
		id, err := c.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, id)
		specs = append(specs, spec)
	}

	// The three queued jobs complete on b while a stays stuck.
	deadline := time.Now().Add(10 * time.Second)
	for {
		done := 0
		for _, id := range jobs {
			if st, _, _ := tc.getJob(tc.urls["b"], id); st != nil && st.State == api.StateDone {
				done++
			}
		}
		if done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d jobs done; work stealing never drained a's queue", done)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The thief counts a steal, and the victim its ack, only after the
	// ack round trip, which can end after the stolen job is already done.
	stolen := tc.srvs["b"].Metrics().Counter("mrts_cluster_steals_total")
	acked := tc.srvs["a"].Metrics().Counter("mrts_cluster_steals_acked_total")
	for (stolen.Value() < 3 || acked.Value() < 3) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := stolen.Value(); got < 3 {
		t.Errorf("b stole %d jobs, want >= 3", got)
	}
	if got := acked.Value(); got < 3 {
		t.Errorf("a acked %d steals, want >= 3", got)
	}
	if got := tc.srvs["a"].Metrics().Counter("mrts_cluster_steals_expired_total").Value(); got != 0 {
		t.Errorf("%d steal grants expired in a clean handoff", got)
	}

	// Unblock a's worker; every job lands done with the spec-determined
	// bytes no matter which node ran it.
	close(release)
	for i, id := range jobs {
		st := tc.waitDone(tc.urls["a"], id, 10*time.Second)
		want := fmt.Sprintf("fake sim prc=1 cg=1 seed=%d\n", specs[i].Workload.Seed)
		if st.Result == nil || st.Result.Text != want {
			t.Errorf("job %d result = %+v, want text %q", i, st.Result, want)
		}
	}
}

// ---------------------------------------------------------------------------
// Failover: a dead owner's unfinished jobs are adopted by its follower
// ---------------------------------------------------------------------------

func TestFollowerAdoptsDeadOwnersJobs(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blockingExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	tc := startCluster(t, []string{"a", "b", "c"},
		func(id string) service.Options {
			if id == "a" {
				// The doomed owner never finishes anything.
				return service.Options{Workers: 1, ExecOverride: blockingExec}
			}
			return service.Options{Workers: 2, ExecOverride: fakeExec}
		}, nil)

	// A job owned by a, submitted through b (redirected to a). Before a
	// acks, the submit record is replicated to a's follower: b.
	spec := specOwnedBy(t, tc.nodes["a"], "a", 1)
	id, err := client.New(tc.urls["b"]).Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.localHas("a", id) {
		t.Fatal("owner a does not hold the submitted job")
	}

	// Hard-kill a. b's probes declare it dead (~150ms), b adopts the
	// replicated record and re-runs the job to the same bytes.
	tc.kill("a")
	st := tc.waitDone(tc.urls["c"], id, 10*time.Second)
	want := fmt.Sprintf("fake sim prc=1 cg=1 seed=%d\n", spec.Workload.Seed)
	if st.Result == nil || st.Result.Text != want {
		t.Fatalf("adopted job result = %+v, want text %q", st.Result, want)
	}
	if !tc.localHas("b", id) {
		t.Error("follower b does not hold the adopted job")
	}
	if got := tc.srvs["b"].Metrics().Counter("mrts_cluster_adopted_jobs_total").Value(); got == 0 {
		t.Error("b served the job without counting an adoption")
	}
	if got := tc.srvs["b"].Metrics().Counter("mrts_cluster_peer_deaths_total").Value(); got == 0 {
		t.Error("b never recorded a's death")
	}
	if got := scrape(tc.srvs["b"].Metrics(), "mrts_cluster_alive_members"); got != 2 {
		t.Errorf("b sees %d alive members after the kill, want 2", got)
	}
}

// A follower whose queue bound is smaller than a dead owner's backlog
// still adopts all of it: adoption recovers acknowledged work, which the
// bound on fresh submissions never refuses, so every job reaches done.
func TestSmallQueueFollowerAdoptsLargerBacklog(t *testing.T) {
	gated := func(gate chan struct{}) func(context.Context, api.JobSpec) (*api.JobResult, error) {
		return func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
			select {
			case <-gate:
				return fakeExec(ctx, spec)
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	ownerGate, followerGate := make(chan struct{}), make(chan struct{})
	defer close(ownerGate)
	tc := startCluster(t, []string{"a", "b"},
		func(id string) service.Options {
			if id == "a" {
				// The doomed owner never finishes anything.
				return service.Options{Workers: 1, ExecOverride: gated(ownerGate)}
			}
			// The follower's one worker is held until adoption is over,
			// so its queue must take the backlog beyond its bound.
			return service.Options{Workers: 1, QueueDepth: 1, ExecOverride: gated(followerGate)}
		}, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.NewCluster([]string{tc.urls["a"], tc.urls["b"]})
	var jobs []string
	for i := 0; i < 5; i++ {
		id, err := c.Submit(ctx, specOwnedBy(t, tc.nodes["a"], "a", uint64(1+1000*i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, id)
	}

	tc.kill("a")
	b := tc.srvs["b"].Metrics()
	for scrape(b, "mrts_cluster_adopted_jobs_total") < int64(len(jobs)) {
		if ctx.Err() != nil {
			t.Fatalf("b adopted %d of a's %d jobs", scrape(b, "mrts_cluster_adopted_jobs_total"), len(jobs))
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(followerGate)
	for _, id := range jobs {
		st, err := c.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}
}

// TestAcknowledgedJobNeverAnswers404 pins the adoption window: while a
// dead owner's queued jobs live only in its follower's replica stream,
// every survivor answers 503 with Retry-After for them — never 404 —
// until the follower adopts them; an ID nobody holds still gets 404.
func TestAcknowledgedJobNeverAnswers404(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	blockingExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	tc := startCluster(t, []string{"a", "b", "c"},
		func(id string) service.Options {
			if id == "a" {
				return service.Options{Workers: 1, ExecOverride: blockingExec}
			}
			return service.Options{Workers: 2, ExecOverride: fakeExec}
		},
		func(id string, c *Config) {
			// A long grace holds the window open for many polls.
			c.SuspectGrace = 500 * time.Millisecond
		})

	// Three jobs owned by a: one runs (blocked), two sit in a's queue.
	c := client.New(tc.urls["a"])
	var jobs []string
	for i := 0; i < 3; i++ {
		id, err := c.Submit(context.Background(), specOwnedBy(t, tc.nodes["a"], "a", uint64(1+1000*i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobs = append(jobs, id)
	}

	status := func(url, id string) (int, string) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	tc.kill("a")
	unavailable := 0
	deadline := time.Now().Add(10 * time.Second)
	for adopted := false; !adopted; {
		if time.Now().After(deadline) {
			t.Fatal("b never adopted a's jobs")
		}
		adopted = true
		for _, id := range jobs {
			if tc.localHas("b", id) {
				continue
			}
			adopted = false
			for _, m := range []string{"b", "c"} {
				switch code, retry := status(tc.urls[m], id); code {
				case http.StatusServiceUnavailable:
					unavailable++
					if retry == "" {
						t.Fatalf("%s answered 503 for job %s without Retry-After", m, id)
					}
				case http.StatusOK:
					// adopted between the localHas check and the lookup
				default:
					t.Fatalf("%s answered HTTP %d for acknowledged job %s inside the adoption window", m, code, id)
				}
			}
		}
		for _, m := range []string{"b", "c"} {
			if code, _ := status(tc.urls[m], "never-submitted"); code != http.StatusNotFound {
				t.Fatalf("%s answered HTTP %d for a never-submitted job, want 404", m, code)
			}
		}
	}
	if unavailable == 0 {
		t.Fatal("no lookup landed inside the adoption window")
	}
	for _, id := range jobs {
		tc.waitDone(tc.urls["c"], id, 10*time.Second)
	}
}

func TestParseMembers(t *testing.T) {
	for _, tt := range []struct {
		name, in string
		want     []Member
		bad      bool
	}{
		{name: "good", in: "a=http://h:1, b=http://h:2",
			want: []Member{{ID: "a", Addr: "http://h:1"}, {ID: "b", Addr: "http://h:2"}}},
		{name: "trailing slash", in: "a=http://h:1//,", want: []Member{{ID: "a", Addr: "http://h:1"}}},
		{name: "missing =", in: "a=http://h:1,b", bad: true},
		{name: "empty id", in: "=http://h:1", bad: true},
		{name: "empty url", in: "a=", bad: true},
		{name: "empty list", in: " , ", bad: true},
	} {
		got, err := ParseMembers(tt.in)
		if (err != nil) != tt.bad {
			t.Errorf("%s: ParseMembers(%q) error = %v, want error %v", tt.name, tt.in, err, tt.bad)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: ParseMembers(%q) = %v, want %v", tt.name, tt.in, got, tt.want)
		}
	}

	// What parses but cannot form a cluster is Config's to reject.
	for _, tt := range []struct{ name, self, in string }{
		{"duplicate id", "a", "a=http://h:1,a=http://h:2"},
		{"self not a member", "c", "a=http://h:1,b=http://h:2"},
	} {
		members, err := ParseMembers(tt.in)
		if err != nil {
			t.Fatalf("%s: %v", tt.name, err)
		}
		cfg := Config{Self: tt.self, Members: members}
		if cfg.defaults() == nil {
			t.Errorf("%s: Config accepted -id %s with members %q", tt.name, tt.self, tt.in)
		}
	}
}
