package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mrts/internal/netfault"
	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
	"mrts/internal/service/journal"
)

// ---------------------------------------------------------------------------
// Partition chaos: a seeded fault schedule plus a mid-run minority
// partition must lose nothing and diverge nowhere
// ---------------------------------------------------------------------------

// netchaosSeed returns the seed for the partition chaos harness:
// MRTS_NETCHAOS_SEED when set (the reproduction knob — a failing run
// logs its seed, re-exporting it replays the exact schedule), a fixed
// default otherwise.
func netchaosSeed(t *testing.T) uint64 {
	t.Helper()
	env := os.Getenv("MRTS_NETCHAOS_SEED")
	if env == "" {
		return 20260808
	}
	seed, err := strconv.ParseUint(env, 10, 64)
	if err != nil {
		t.Fatalf("MRTS_NETCHAOS_SEED=%q: %v", env, err)
	}
	return seed
}

// netchaosSpecs is the chaos job mix: small real-executor jobs (sims,
// figures, a sweep) so every re-run — adopted, stolen, or duplicated —
// must land on byte-identical payloads.
func netchaosSpecs() []api.JobSpec {
	w := api.WorkloadSpec{Frames: 2, Seed: 1}
	return []api.JobSpec{
		{Type: api.JobSim, Workload: w, PRC: 1, CG: 1, Policy: "mrts"},
		{Type: api.JobSim, Workload: w, PRC: 2, CG: 1, Policy: "mrts",
			Faults: &api.FaultSpec{Seed: 7, FailCG: 1}},
		{Type: api.JobSim, Workload: api.WorkloadSpec{Frames: 2, Seed: 2}, PRC: 2, CG: 2, Policy: "mrts"},
		{Type: api.JobFig, Workload: w, Fig: "8", MaxPRC: 2, MaxCG: 2},
		{Type: api.JobFig, Workload: w, Fig: "faults"},
		{Type: api.JobSweep, Workload: w, Points: []api.Point{
			{PRC: 1, CG: 1, Policy: "mrts"},
			{PRC: 2, CG: 2, Policy: "mrts"},
		}},
	}
}

// scrape renders a registry as /metrics would and reads one plain
// counter/gauge line off it (-1 when the metric is absent).
func scrape(m *service.Metrics, name string) int64 {
	var page strings.Builder
	m.WriteText(&page)
	return metricValue(page.String(), name)
}

// metricValue extracts one plain counter/gauge line from a /metrics page
// (-1 when the metric is absent).
func metricValue(page, name string) int64 {
	for _, line := range strings.Split(page, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return -1
		}
		return n
	}
	return -1
}

// dumpClusterState logs every node's local job table and membership
// view — the post-mortem for a lost-job failure.
func dumpClusterState(t *testing.T, tc *testCluster, ids []string) {
	t.Helper()
	for _, nodeID := range ids {
		n := tc.nodes[nodeID]
		var view []string
		for _, peer := range ids {
			if peer == nodeID {
				continue
			}
			switch {
			case n.mem.Alive(peer):
				view = append(view, peer+":alive")
			case n.mem.Dead(peer):
				view = append(view, peer+":dead")
			default:
				view = append(view, peer+":suspect")
			}
		}
		var local []string
		for _, st := range tc.srvs[nodeID].Jobs() {
			local = append(local, fmt.Sprintf("%s=%s", st.ID, st.State))
		}
		t.Logf("node %s: peers %v queue=%d jobs %v", nodeID, view, tc.srvs[nodeID].QueueLen(), local)
	}
}

// TestPartitionChaosLosesNothing is the partition-tolerance acceptance
// check: a 3-node in-process cluster runs a real-executor job mix while
// every wire — probes, redirects, replication, steals, and the client
// itself — goes through a seeded netfault engine that drops, duplicates
// and reorders deliveries. Mid-run a seeded minority is partitioned off
// and healed after a seeded interval. The invariants:
//
//   - zero lost jobs: every acknowledged submission reaches done;
//   - no divergent duplicates: every node holding a copy of a job holds
//     byte-identical payloads;
//   - byte-identical figures: every payload equals the uninterrupted
//     plain-server reference;
//   - the netfault and suspect counters are visible on /metrics.
//
// The whole schedule is a pure function of MRTS_NETCHAOS_SEED, so a
// failure reproduces with the seed it logs.
func TestPartitionChaosLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("partition chaos skipped in -short mode")
	}
	seed := netchaosSeed(t)
	t.Logf("netfault seed %d (re-run with MRTS_NETCHAOS_SEED=%d)", seed, seed)
	ctx := context.Background()
	specs := netchaosSpecs()

	// Reference payloads from an uninterrupted, cluster-free server.
	ref := service.New(service.Options{Workers: 2})
	defer ref.Close()
	want := make([]string, len(specs))
	for i, spec := range specs {
		job, err := ref.Submit(spec)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		if err := ref.Wait(ctx, job); err != nil {
			t.Fatal(err)
		}
		st := ref.Status(job, true)
		if st.State != api.StateDone {
			t.Fatalf("reference job %d = %s (%s)", i, st.State, st.Error)
		}
		want[i] = payload(t, &st)
	}

	// One shared fault engine: every node wraps its own identity around
	// it, so the whole cluster sees one consistent schedule.
	ids := []string{"a", "b", "c"}
	nf := netfault.Must(seed, netfault.Options{
		Members:      ids,
		DropRate:     0.05,
		DupRate:      0.05,
		ReorderRate:  0.10,
		ReorderDelay: 5 * time.Millisecond,
	})
	nf.Start(time.Now())

	tc := startCluster(t, ids,
		func(id string) service.Options {
			return service.Options{Workers: 2}
		},
		func(id string, c *Config) {
			c.NetFault = nf
			c.ProbeTimeout = 100 * time.Millisecond
			c.SuspectGrace = 150 * time.Millisecond
			c.StealInterval = 25 * time.Millisecond
			c.StealAckTimeout = 500 * time.Millisecond
		})

	// The client rides the same faulty network under its own identity:
	// submissions and polls see drops, dups and the partition too.
	cc := client.NewCluster([]string{tc.urls["a"], tc.urls["b"], tc.urls["c"]})
	cc.HTTPClient = &http.Client{
		Timeout:   2 * time.Second,
		Transport: nf.Transport("client", nil),
	}
	cc.Hedge = 100 * time.Millisecond
	cc.Retry = client.RetryPolicy{MaxAttempts: 120, BaseDelay: 25 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	cc.SeedRetryJitter(int64(seed))

	jobs := make([]string, len(specs))
	for i, spec := range specs {
		id, err := cc.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit spec %d: %v", i, err)
		}
		jobs[i] = id
	}
	t.Logf("submitted %v", jobs)
	dumpClusterState(t, tc, ids)

	// Mid-run: cut a seeded minority off, heal after a seeded interval.
	// The partition outlives the suspect grace, so the majority declares
	// the minority dead, adopts its replicated jobs, and resyncs results
	// back on rejoin.
	minority := nf.DrawMinority(ids)
	heal := nf.DrawHealDelay(300*time.Millisecond, 800*time.Millisecond)
	t.Logf("partitioning %v for %v", minority, heal)
	nf.PartitionNow(minority)
	time.Sleep(heal)
	nf.Heal()

	// Zero lost jobs, byte-identical to the unpartitioned reference.
	deadline := time.Now().Add(2 * time.Minute)
	for i, id := range jobs {
		var st *api.JobStatus
		for {
			var err error
			st, err = cc.Job(ctx, id)
			if err == nil && st.State == api.StateDone {
				break
			}
			if err == nil && st.State.Terminal() {
				t.Fatalf("job %s (spec %d) finished %s: %s", id, i, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				dumpClusterState(t, tc, ids)
				t.Fatalf("job %s (spec %d) lost across the partition (last: st=%v err=%v)", id, i, st, err)
			}
			time.Sleep(25 * time.Millisecond)
		}
		if got := payload(t, st); got != want[i] {
			t.Errorf("job %s (spec %d) diverged from the unpartitioned reference:\n got: %q\nwant: %q",
				id, i, got, want[i])
		}
	}

	// No divergent duplicates: every node that holds a copy — owner,
	// adopter, thief — must hold the reference bytes. Copies still
	// settling (a rejoined node resolving its queue) get a bounded wait.
	holderDeadline := time.Now().Add(30 * time.Second)
	for i, id := range jobs {
		for _, nodeID := range ids {
			for {
				resp, err := http.Get(tc.urls[nodeID] + "/cluster/v1/jobs/" + id)
				if err != nil {
					t.Fatalf("local get %s on %s: %v", id, nodeID, err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					break // not a holder
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("local get %s on %s: HTTP %d", id, nodeID, resp.StatusCode)
				}
				var st api.JobStatus
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				if st.State == api.StateDone {
					if got := payload(t, &st); got != want[i] {
						t.Errorf("node %s holds divergent bytes for job %s (spec %d):\n got: %q\nwant: %q",
							nodeID, id, i, got, want[i])
					}
					break
				}
				if st.State.Terminal() {
					t.Errorf("node %s holds job %s (spec %d) in state %s: %s", nodeID, id, i, st.State, st.Error)
					break
				}
				if time.Now().After(holderDeadline) {
					t.Fatalf("node %s never settled its copy of job %s (state %s)", nodeID, id, st.State)
				}
				time.Sleep(25 * time.Millisecond)
			}
		}
	}

	// The fault engine's counters and the suspect counter are wired onto
	// every node's /metrics page; the schedule above guarantees traffic
	// and blocked deliveries somewhere in the cluster.
	var totalReqs, totalBlocked int64
	for _, nodeID := range ids {
		resp, err := http.Get(tc.urls[nodeID] + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		page := string(body)
		for _, name := range []string{
			"mrts_netfault_requests_total", "mrts_netfault_blocked_total",
			"mrts_netfault_dropped_requests_total", "mrts_netfault_dropped_responses_total",
			"mrts_netfault_duplicated_total", "mrts_netfault_delayed_total",
			"mrts_cluster_peer_suspects_total",
		} {
			if metricValue(page, name) < 0 {
				t.Errorf("node %s /metrics is missing %s", nodeID, name)
			}
		}
		totalReqs += metricValue(page, "mrts_netfault_requests_total")
		totalBlocked += metricValue(page, "mrts_netfault_blocked_total")
	}
	if totalReqs <= 0 {
		t.Error("no node routed any request through the fault engine")
	}
	if totalBlocked <= 0 {
		t.Error("the partition blocked no delivery — the fault engine was not on the wire")
	}
	stats := nf.Stats()
	t.Logf("netfault: %+v", stats)
}

// ---------------------------------------------------------------------------
// Probe deadlines: a hung peer cannot stall the probe loop
// ---------------------------------------------------------------------------

// TestProbeDeadlineBoundsHungPeer is the regression test for per-attempt
// probe deadlines: a peer that accepts connections but never answers —
// the classic half-dead process — must still be detected within a few
// probe periods, even when the shared HTTP client has NO timeout at all.
// Before per-probe deadlines, this exact setup hung the probe loop
// forever and the peer was never declared dead.
func TestProbeDeadlineBoundsHungPeer(t *testing.T) {
	tc := startCluster(t, []string{"a", "b"},
		func(id string) service.Options {
			return service.Options{Workers: 1, ExecOverride: fakeExec}
		},
		func(id string, c *Config) {
			c.ProbeInterval = 50 * time.Millisecond
			c.ProbeTimeout = 50 * time.Millisecond
			c.SuspectGrace = 100 * time.Millisecond
			// No client timeout: only the per-probe deadline bounds the
			// attempt.
			c.HTTPClient = &http.Client{}
		})

	// b hangs every request until the client gives up — it never
	// answers, but it keeps accepting.
	tc.swaps["b"].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))

	deadline := time.Now().Add(5 * time.Second)
	for !tc.nodes["a"].mem.Dead("b") {
		if time.Now().After(deadline) {
			t.Fatal("hung peer b never declared dead — probe attempts are unbounded")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := tc.srvs["a"].Metrics().Counter("mrts_cluster_peer_suspects_total").Value(); got == 0 {
		t.Error("b was declared dead without passing through the suspect state")
	}
}

// ---------------------------------------------------------------------------
// Leased steals: the job never leaves its owner, whatever the wire does
// ---------------------------------------------------------------------------

// blockUntil returns an executor that answers as fakeExec once release is
// closed, and fails if the run is cancelled first.
func blockUntil(release <-chan struct{}) func(context.Context, api.JobSpec) (*api.JobResult, error) {
	return func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// holdResults is a thief's transport that holds its first result post
// (the resync after a leased run) until release is closed, signalling
// held once the post is on its way, and then delivers it copies times.
type holdResults struct {
	base          http.RoundTripper
	copies        int
	once          sync.Once
	held, release chan struct{}
}

func (h *holdResults) RoundTrip(req *http.Request) (*http.Response, error) {
	first := false
	if req.URL.Path == "/cluster/v1/resync" {
		h.once.Do(func() { first = true })
	}
	if !first {
		return h.base.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	close(h.held)
	<-h.release
	var resp *http.Response
	for i := 0; i < max(h.copies, 1); i++ {
		if resp != nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		c := req.Clone(req.Context())
		c.Body = io.NopCloser(bytes.NewReader(body))
		if resp, err = h.base.RoundTrip(c); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

// pinOwner submits a job that occupies owner's only worker, then job J,
// which waits in owner's queue for a thief. It returns J's ID and spec.
func pinOwner(t *testing.T, tc *testCluster, owner string) (string, api.JobSpec) {
	t.Helper()
	c := client.New(tc.urls[owner])
	if _, err := c.Submit(context.Background(), specOwnedBy(t, tc.nodes[owner], owner, 1)); err != nil {
		t.Fatal(err)
	}
	spec := specOwnedBy(t, tc.nodes[owner], owner, 10001)
	id, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return id, spec
}

// doneOnce checks that job id ended done exactly once on owner, with the
// spec-determined payload, and that no other node holds a copy.
func doneOnce(t *testing.T, tc *testCluster, owner, id string, spec api.JobSpec) {
	t.Helper()
	j, ok := tc.srvs[owner].Job(id)
	if !ok {
		t.Fatalf("job %s left its owner %s", id, owner)
	}
	want, _ := fakeExec(context.Background(), spec)
	if st := tc.srvs[owner].Status(j, true); st.State != api.StateDone || st.Result == nil || st.Result.Text != want.Text {
		t.Fatalf("job %s on %s = %s %+v, want done with %q", id, owner, st.State, st.Result, want.Text)
	}
	// The owner's other job is still pinned, so this is the only
	// completion it has recorded.
	if n := tc.srvs[owner].Metrics().Counter("mrts_jobs_done_total").Value(); n != 1 {
		t.Errorf("owner %s completed %d jobs, want exactly 1", owner, n)
	}
	for _, node := range tc.ids {
		if _, ok := tc.srvs[node].Job(id); ok && node != owner {
			t.Errorf("job %s is also in %s's table", id, node)
		}
	}
}

// TestStealDuplicateStaleResultCompletesOnce replays, under leases, the
// interleaving that fencing used to guard: thief b runs leased job J but
// its result post is held in flight; b stops answering, so a's lease
// check requeues J, and a leases J again to thief c. Then b's stale post
// lands, twice. J completes exactly once, on a alone, with the
// spec-determined payload, and c's later result is discarded.
func TestStealDuplicateStaleResultCompletesOnce(t *testing.T) {
	pin := make(chan struct{})
	defer close(pin)
	cStarted, cRelease := make(chan struct{}), make(chan struct{})
	var cStart, cFinish sync.Once
	finishC := func() { cFinish.Do(func() { close(cRelease) }) }
	defer finishC()
	cExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		cStart.Do(func() { close(cStarted) })
		return blockUntil(cRelease)(ctx, spec)
	}
	hold := &holdResults{base: http.DefaultTransport, copies: 2, held: make(chan struct{}), release: make(chan struct{})}
	var deliver sync.Once
	deliverResult := func() { deliver.Do(func() { close(hold.release) }) }
	defer deliverResult()
	tc := startCluster(t, []string{"a", "b", "c"},
		func(id string) service.Options {
			switch id {
			case "a":
				return service.Options{Workers: 1, ExecOverride: blockUntil(pin)}
			case "c":
				return service.Options{Workers: 1, ExecOverride: cExec}
			}
			return service.Options{Workers: 1, ExecOverride: fakeExec}
		},
		func(id string, c *Config) {
			c.StealAckTimeout = 50 * time.Millisecond
			if id == "b" {
				c.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: hold}
			}
		})
	j, spec := pinOwner(t, tc, "a")

	// b leases J and runs it; its result post is held in flight.
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		tc.nodes["b"].stealOnce("a")
	}()
	<-hold.held

	// b stops answering: a's lease check finds no thief running J and
	// requeues it.
	tc.kill("b")
	expired := tc.srvs["a"].Metrics().Counter("mrts_cluster_steals_expired_total")
	waitFor(t, "a to requeue J", func() bool { return expired.Value() == 1 })

	// c leases J again and is still running it.
	cDone := make(chan struct{})
	go func() {
		defer close(cDone)
		tc.nodes["c"].stealOnce("a")
	}()
	<-cStarted

	// b's stale result lands twice, then c's result.
	deliverResult()
	<-bDone
	finishC()
	<-cDone

	doneOnce(t, tc, "a", j, spec)
	if got := tc.srvs["a"].Metrics().Counter("mrts_cluster_steals_acked_total").Value(); got != 1 {
		t.Errorf("a acked %d leases, want 1 (c's, settled by b's result)", got)
	}
	if got := expired.Value(); got != 1 {
		t.Errorf("a requeued J %d times, want 1", got)
	}
}

// TestStealBackBeforeAckLosesNothing replays the window in which a
// handoff protocol could lose a job: thief b has run a's job J and its
// result is still in flight (held by b's transport) when a, idle, tries
// to steal from b. Under leases J never left a, so b has nothing to give
// back, and J ends done on a alone.
func TestStealBackBeforeAckLosesNothing(t *testing.T) {
	pin := make(chan struct{})
	defer close(pin)
	hold := &holdResults{base: http.DefaultTransport, held: make(chan struct{}), release: make(chan struct{})}
	var deliver sync.Once
	deliverResult := func() { deliver.Do(func() { close(hold.release) }) }
	defer deliverResult()
	tc := startCluster(t, []string{"a", "b"},
		func(id string) service.Options {
			if id == "a" {
				return service.Options{Workers: 1, ExecOverride: blockUntil(pin)}
			}
			return service.Options{Workers: 1, ExecOverride: fakeExec}
		},
		func(id string, c *Config) {
			// The lease stays unchecked until the held result lands.
			c.StealAckTimeout = time.Minute
			if id == "b" {
				c.HTTPClient = &http.Client{Timeout: 10 * time.Second, Transport: hold}
			}
		})
	j, spec := pinOwner(t, tc, "a")

	stolen := make(chan struct{})
	go func() {
		defer close(stolen)
		tc.nodes["b"].stealOnce("a")
	}()
	<-hold.held

	// a steals from b while b's result is held: b holds no job to give.
	tc.nodes["a"].stealOnce("b")
	if got := tc.srvs["a"].Metrics().Counter("mrts_cluster_steals_total").Value(); got != 0 {
		t.Fatalf("a stole %d jobs back from b, want 0", got)
	}
	if _, ok := tc.srvs["b"].Job(j); ok {
		t.Fatalf("thief b admitted %s into its own table", j)
	}
	if st := tc.srvs["a"].Status(mustJob(t, tc.srvs["a"], j), false); st.State != api.StateQueued {
		t.Fatalf("leased job %s reads %s on its owner, want queued", j, st.State)
	}

	// The held result lands: J is done on a, whose worker is still
	// pinned.
	deliverResult()
	<-stolen
	doneOnce(t, tc, "a", j, spec)
}

func mustJob(t *testing.T, s *service.Server, id string) *service.Job {
	t.Helper()
	j, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s is not in the table", id)
	}
	return j
}

// TestStealLeaseRearmsWhileThiefRuns pins the lease check: while thief b
// is still running a's job J, each check finds it in b's in-flight set
// and re-arms, with no requeue. Once b stops answering, the next check
// requeues J, and a runs it to the spec-determined payload; b's late
// result is discarded.
func TestStealLeaseRearmsWhileThiefRuns(t *testing.T) {
	pin, bRelease := make(chan struct{}), make(chan struct{})
	var unpin, finishB sync.Once
	defer unpin.Do(func() { close(pin) })
	defer finishB.Do(func() { close(bRelease) })
	bStarted := make(chan struct{})
	var bStart sync.Once
	bExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		bStart.Do(func() { close(bStarted) })
		return blockUntil(bRelease)(ctx, spec)
	}
	tc := startCluster(t, []string{"a", "b"},
		func(id string) service.Options {
			if id == "a" {
				return service.Options{Workers: 1, ExecOverride: blockUntil(pin)}
			}
			return service.Options{Workers: 1, ExecOverride: bExec}
		},
		func(id string, c *Config) { c.StealAckTimeout = 20 * time.Millisecond })
	// Count a's lease checks as they reach b.
	checks := make(chan struct{}, 64)
	bHandler := tc.nodes["b"].Handler()
	tc.swaps["b"].set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/cluster/v1/holds/") {
			defer func() {
				select {
				case checks <- struct{}{}:
				default:
				}
			}()
		}
		bHandler.ServeHTTP(w, r)
	}))
	j, spec := pinOwner(t, tc, "a")

	stolen := make(chan struct{})
	go func() {
		defer close(stolen)
		tc.nodes["b"].stealOnce("a")
	}()
	<-bStarted
	for i := 0; i < 3; i++ {
		<-checks
	}
	a := tc.srvs["a"]
	if got := a.Metrics().Counter("mrts_cluster_steals_expired_total").Value(); got != 0 {
		t.Fatalf("a requeued J %d times while b was running it", got)
	}
	if n := a.QueueLen(); n != 0 {
		t.Fatalf("a's queue holds %d jobs while J is leased, want 0", n)
	}

	// b stops answering: the next check requeues J, and a runs it.
	tc.kill("b")
	expired := a.Metrics().Counter("mrts_cluster_steals_expired_total")
	waitFor(t, "a to requeue J", func() bool { return expired.Value() == 1 })
	unpin.Do(func() { close(pin) })
	tc.waitDone(tc.urls["a"], j, 10*time.Second)

	// b's result arrives after a's own run and changes nothing.
	finishB.Do(func() { close(bRelease) })
	<-stolen
	want, _ := fakeExec(context.Background(), spec)
	if st := a.Status(mustJob(t, a, j), true); st.Result == nil || st.Result.Text != want.Text {
		t.Errorf("J on a = %+v, want text %q", st.Result, want.Text)
	}
	if got := a.Metrics().Counter("mrts_cluster_steals_acked_total").Value(); got != 0 {
		t.Errorf("a acked %d leases after requeueing J, want 0", got)
	}
}

// TestStealChaosLosesNothing puts work stealing under network chaos: an
// owner with one worker and a slow deterministic executor builds a queue
// that two idle peers steal from, while every node-to-node request goes
// through a seeded netfault engine (drops, duplicates, reorders) and a
// seeded minority is partitioned off and healed mid-run. No job may be
// lost, every copy on every node must carry the spec-determined payload,
// and the run must actually steal. MRTS_NETCHAOS_SEED replays a
// schedule.
func TestStealChaosLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("steal chaos skipped in -short mode")
	}
	seed := netchaosSeed(t)
	t.Logf("netfault seed %d (re-run with MRTS_NETCHAOS_SEED=%d)", seed, seed)
	ids := []string{"a", "b", "c"}
	nf := netfault.Must(seed, netfault.Options{
		Members:      ids,
		DropRate:     0.05,
		DupRate:      0.05,
		ReorderRate:  0.10,
		ReorderDelay: 5 * time.Millisecond,
	})
	nf.Start(time.Now())
	slowExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-time.After(15 * time.Millisecond):
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	tc := startCluster(t, ids,
		func(string) service.Options { return service.Options{Workers: 1, ExecOverride: slowExec} },
		func(id string, c *Config) {
			c.NetFault = nf
			c.ProbeTimeout = 100 * time.Millisecond
			c.SuspectGrace = 150 * time.Millisecond
			c.StealInterval = 10 * time.Millisecond
			c.StealAckTimeout = 200 * time.Millisecond
		})

	// The queue builds on a; the client submits over a clean wire.
	ctx := context.Background()
	owner := client.New(tc.urls["a"])
	const jobs = 16
	specs := make(map[string]api.JobSpec, jobs)
	var order []string
	for i := 0; i < jobs; i++ {
		spec := specOwnedBy(t, tc.nodes["a"], "a", uint64(1+1000*i))
		id, err := owner.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		specs[id] = spec
		order = append(order, id)
	}

	stealsTotal := func() (n int64) {
		for _, id := range ids {
			n += tc.srvs[id].Metrics().Counter("mrts_cluster_steals_total").Value()
		}
		return n
	}
	waitFor(t, "a first steal", func() bool { return stealsTotal() > 0 })
	minority := nf.DrawMinority(ids)
	heal := nf.DrawHealDelay(200*time.Millisecond, 500*time.Millisecond)
	t.Logf("partitioning %v for %v", minority, heal)
	nf.PartitionNow(minority)
	time.Sleep(heal)
	nf.Heal()

	cc := client.NewCluster([]string{tc.urls["a"], tc.urls["b"], tc.urls["c"]})
	for _, id := range order {
		want, _ := fakeExec(ctx, specs[id])
		deadline := time.Now().Add(time.Minute)
		for {
			st, err := cc.Job(ctx, id)
			if err == nil && st.State == api.StateDone {
				if st.Result == nil || st.Result.Text != want.Text {
					t.Errorf("job %s = %+v, want text %q", id, st.Result, want.Text)
				}
				break
			}
			if err == nil && st.State.Terminal() {
				t.Fatalf("job %s finished %s: %s", id, st.State, st.Error)
			}
			if time.Now().After(deadline) {
				dumpClusterState(t, tc, ids)
				t.Fatalf("job %s lost (last: st=%v err=%v)", id, st, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Every copy on every node — the owner's, an adopter's — carries
	// the one spec-determined payload once it settles.
	for _, node := range ids {
		for _, id := range order {
			want, _ := fakeExec(ctx, specs[id])
			var st api.JobStatus
			waitFor(t, "node "+node+" to settle job "+id, func() bool {
				j, ok := tc.srvs[node].Job(id)
				if ok {
					st = tc.srvs[node].Status(j, true)
				}
				return !ok || st.State.Terminal()
			})
			if st.State == "" {
				continue // not a holder
			}
			if st.State != api.StateDone || st.Result == nil || st.Result.Text != want.Text {
				t.Errorf("node %s holds job %s as %s %+v, want done with %q", node, id, st.State, st.Result, want.Text)
			}
		}
	}
	t.Logf("steals %d, netfault %+v", stealsTotal(), nf.Stats())
}

// ---------------------------------------------------------------------------
// Replica streams: torn tails replay, duplicated batches ack idempotently
// ---------------------------------------------------------------------------

func TestReplicaSetReplaysTornAndCorruptTail(t *testing.T) {
	dir := t.TempDir()
	j, err := journal.Open(filepath.Join(dir, replicaPrefix+"x"))
	if err != nil {
		t.Fatal(err)
	}
	var good []journal.Record
	for i := 0; i < 3; i++ {
		rec := journal.Record{Kind: journal.KindSubmit, ID: fmt.Sprintf("job-%d", i)}
		good = append(good, rec)
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the tail the way a crash mid-replication would: one line of
	// garbage, then a half-written record with no trailing newline.
	path := filepath.Join(dir, replicaPrefix+"x", journal.FileName)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("this is not a journal record\n{\"kind\":\"sub"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rs, err := openReplicaSet(dir)
	if err != nil {
		t.Fatalf("openReplicaSet refused a torn replica tail: %v", err)
	}
	defer rs.close()
	recs := rs.snapshot("x")
	if len(recs) != len(good) {
		t.Fatalf("replayed %d records, want %d (good prefix only)", len(recs), len(good))
	}
	for i, r := range recs {
		if r.ID != good[i].ID {
			t.Errorf("record %d = %q, want %q", i, r.ID, good[i].ID)
		}
	}

	// The protocol cursor is not persisted: a reloaded stream is at seq 0,
	// so an in-order-looking append is left unapplied and the cursor ack
	// tells the owner to resend the full history.
	seq, _, applied, _ := rs.apply("x", 5, false, []journal.Record{{Kind: journal.KindSubmit, ID: "late"}})
	if applied || seq != 0 {
		t.Fatalf("post-restart append applied=%v seq=%d, want unapplied at seq 0", applied, seq)
	}

	// A reset batch re-establishes the stream...
	fresh := []journal.Record{{Kind: journal.KindSubmit, ID: "r1"}, {Kind: journal.KindSubmit, ID: "r2"}}
	seq, chain, applied, err := rs.apply("x", 1, true, fresh)
	if err != nil || !applied || seq != 1 {
		t.Fatalf("reset apply = (%d, %v, %v), want applied at seq 1", seq, applied, err)
	}
	// ...an in-order batch extends it...
	next := []journal.Record{{Kind: journal.KindComplete, ID: "r1"}}
	seq2, chain2, applied2, err := rs.apply("x", 2, false, next)
	if err != nil || !applied2 || seq2 != 2 || chain2 == chain {
		t.Fatalf("in-order apply = (%d, %v, %v), want applied at seq 2 with advanced chain", seq2, applied2, err)
	}
	// ...and a duplicated delivery of that same batch is skipped but
	// acked with the unchanged cursor, exactly what the owner expects for
	// the original delivery.
	seq3, chain3, applied3, err := rs.apply("x", 2, false, next)
	if err != nil || applied3 {
		t.Fatalf("duplicate apply applied=%v err=%v, want idempotent skip", applied3, err)
	}
	if seq3 != seq2 || chain3 != chain2 {
		t.Errorf("duplicate ack = (%d, %#x), want unchanged cursor (%d, %#x)", seq3, chain3, seq2, chain2)
	}
	if got := len(rs.snapshot("x")); got != 3 {
		t.Errorf("stream holds %d records after duplicate, want 3", got)
	}
}
