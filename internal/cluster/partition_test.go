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
//   - the netfault and fencing counters are visible on /metrics.
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

	// The fault engine's counters and the fencing counter are wired onto
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
			"mrts_cluster_fence_rejections_total", "mrts_cluster_peer_suspects_total",
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
// Steal fencing: a duplicated stale ack cannot settle a newer grant
// ---------------------------------------------------------------------------

// postSteal drives the victim-side steal wire endpoints directly, playing
// the network (and its duplications) by hand.
func postSteal(t *testing.T, url string, in any, out any) int {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, body)
		}
	}
	return resp.StatusCode
}

// TestStealFenceRejectsStaleDuplicateAck replays the loss window fencing
// closes: a steal grant expires unacked and the job is re-granted; then
// the network delivers a duplicate of the FIRST grant's ack. Without
// fencing that stale ack would Forget the job while the second handoff
// is still in flight — with fencing it is rejected, counted, and only
// the current token settles the grant.
func TestStealFenceRejectsStaleDuplicateAck(t *testing.T) {
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
	tc := startCluster(t, []string{"a", "b"},
		func(id string) service.Options {
			if id == "a" {
				return service.Options{Workers: 1, ExecOverride: blockingExec}
			}
			return service.Options{Workers: 2, ExecOverride: fakeExec}
		},
		func(id string, c *Config) {
			c.StealAckTimeout = 150 * time.Millisecond
		})

	// Two jobs owned by a: the first pins a's only worker, the second
	// sits queued — the steal target.
	c := client.New(tc.urls["a"])
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, specOwnedBy(t, tc.nodes["a"], "a", uint64(1+1000*i))); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// First grant, never acked: the timer expires it. The thief b never
	// admitted the job, so the victim requeues it.
	var g1 stealResponse
	if code := postSteal(t, tc.urls["a"]+"/cluster/v1/steal", stealRequest{Thief: "b"}, &g1); code != http.StatusOK {
		t.Fatalf("first steal: HTTP %d", code)
	}
	expired := tc.srvs["a"].Metrics().Counter("mrts_cluster_steals_expired_total")
	deadline := time.Now().Add(5 * time.Second)
	for expired.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unacked steal grant never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Second grant of the same job: same ID, strictly newer fence.
	var g2 stealResponse
	deadline = time.Now().Add(5 * time.Second)
	for {
		if code := postSteal(t, tc.urls["a"]+"/cluster/v1/steal", stealRequest{Thief: "b"}, &g2); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired job never became stealable again")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g2.ID != g1.ID {
		t.Fatalf("re-grant handed out %s, want the requeued %s", g2.ID, g1.ID)
	}
	if g2.Fence <= g1.Fence {
		t.Fatalf("fence not monotonic: first %d, second %d", g1.Fence, g2.Fence)
	}

	// The duplicated delivery of the stale ack: rejected, counted, and
	// the job survives on the victim.
	if code := postSteal(t, tc.urls["a"]+"/cluster/v1/steal-ack", ackRequest{ID: g1.ID, Fence: g1.Fence}, nil); code != http.StatusConflict {
		t.Fatalf("stale ack answered HTTP %d, want 409", code)
	}
	if got := tc.srvs["a"].Metrics().Counter("mrts_cluster_fence_rejections_total").Value(); got != 1 {
		t.Errorf("fence rejections = %d, want 1", got)
	}
	if !tc.localHas("a", g1.ID) {
		t.Fatal("stale ack made the victim forget the job — the loss window is open")
	}

	// The current token settles the grant normally.
	if code := postSteal(t, tc.urls["a"]+"/cluster/v1/steal-ack", ackRequest{ID: g2.ID, Fence: g2.Fence}, nil); code != http.StatusNoContent {
		t.Fatalf("current ack answered HTTP %d, want 204", code)
	}
	if tc.localHas("a", g2.ID) {
		t.Error("acked steal left the job on the victim")
	}
}

// holdAcks is a thief's transport that holds its first steal ack until
// release is closed, signalling held once the ack is on its way.
type holdAcks struct {
	base          http.RoundTripper
	once          sync.Once
	held, release chan struct{}
}

func (h *holdAcks) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/cluster/v1/steal-ack" {
		h.once.Do(func() {
			close(h.held)
			<-h.release
		})
	}
	return h.base.RoundTrip(req)
}

// TestStealBackBeforeAckLosesNothing replays the steal-back window: a
// grants queued job J to b, b admits J and acks, and before a handles
// that ack a — whose queue is now empty — steals J back from b. A
// steal-back that dedupes onto a's taken copy and acks b makes b forget
// J; the late ack then makes a forget it too, leaving J on no node. The
// ack is held by b's transport, not by timing.
func TestStealBackBeforeAckLosesNothing(t *testing.T) {
	release := make(chan struct{})
	var unpin sync.Once
	unpinAll := func() { unpin.Do(func() { close(release) }) }
	defer unpinAll()
	blockingExec := func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
			return fakeExec(ctx, spec)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	hold := &holdAcks{base: http.DefaultTransport, held: make(chan struct{}), release: make(chan struct{})}
	var deliver sync.Once
	deliverAck := func() { deliver.Do(func() { close(hold.release) }) }
	defer deliverAck()
	tc := startCluster(t, []string{"a", "b"},
		func(string) service.Options { return service.Options{Workers: 1, ExecOverride: blockingExec} },
		func(id string, c *Config) {
			if id == "a" {
				// a's grant to b must stay outstanding until the held
				// ack lands; b's grant back to a settles on b's timer.
				c.StealAckTimeout = time.Minute
				return
			}
			c.StealAckTimeout = 100 * time.Millisecond
			c.HTTPClient = &http.Client{Timeout: 2 * time.Second, Transport: hold}
		})

	// Each node's only worker is pinned by a job of its own, so a stolen
	// job waits in the thief's queue. J waits in a's queue.
	ctx := context.Background()
	submit := func(node string, seed uint64) string {
		id, err := client.New(tc.urls[node]).Submit(ctx, specOwnedBy(t, tc.nodes[node], node, seed))
		if err != nil {
			t.Fatalf("submit to %s: %v", node, err)
		}
		return id
	}
	running := func(node, id string) {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if st, _, _ := tc.getJob(tc.urls[node], id); st != nil && st.State == api.StateRunning {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never started on %s", id, node)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	running("a", submit("a", 1))
	running("b", submit("b", 5001))
	j := submit("a", 10001)

	// b steals J and admits it; its ack to a is held in flight.
	stolen := make(chan struct{})
	go func() {
		defer close(stolen)
		tc.nodes["b"].stealOnce("a")
	}()
	<-hold.held
	if !tc.localHas("b", j) {
		t.Fatalf("b acked the steal of %s without holding it", j)
	}

	// a steals J back, then b's grant to a settles: acked by the
	// steal-back, or left to b's timer.
	tc.nodes["a"].stealOnce("b")
	deadline := time.Now().Add(5 * time.Second)
	for {
		b := tc.nodes["b"]
		b.mu.Lock()
		pending := len(b.pendingSteals)
		b.mu.Unlock()
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("b's grant to a never settled")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The held ack lands on a.
	deliverAck()
	<-stolen
	if !tc.localHas("a", j) && !tc.localHas("b", j) {
		t.Fatalf("job %s is on no node after the steal-back", j)
	}
	unpinAll()
	tc.waitDone(tc.urls["a"], j, 10*time.Second)
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
