package cluster

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"mrts/internal/netfault"
	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/journal"
)

// Config wires one node into a cluster.
type Config struct {
	// Self is this node's member ID; it must appear in Members.
	Self string
	// Members is the full static seed list, self included. Every node
	// must be configured with the same list (IDs determine placement).
	Members []Member
	// Dir, when set, persists replica streams received from peers under
	// Dir/replica-<peer>, so replicated records survive a restart of
	// this node. Empty keeps replicas in memory only.
	Dir string

	// ProbeInterval is the liveness probe period (default 1s).
	ProbeInterval time.Duration
	// ProbeTimeout is the per-attempt deadline of one liveness probe
	// (default ProbeInterval). Each probe carries its own deadline so a
	// hung peer — accepting connections, never answering — cannot stall
	// its probe loop past one detection step, whatever the shared HTTP
	// client's timeout is.
	ProbeTimeout time.Duration
	// DeadAfter is how many consecutive probe failures move a peer from
	// alive to suspect (default 3).
	DeadAfter int
	// SuspectGrace is how long a peer stays suspect — excluded from
	// routing and follower selection, but not yet adopted from — before
	// continued probe failure declares it dead (default
	// 2*ProbeInterval). The grace dampens membership flapping: a
	// transient partition shorter than it never triggers adoption.
	SuspectGrace time.Duration
	// StealInterval is how often an idle node looks for queued work on
	// hot peers (default 250ms). Negative disables stealing.
	StealInterval time.Duration
	// StealAckTimeout bounds how long a granted steal may stay
	// unacknowledged before the victim settles it — forgetting the job
	// if the thief holds it durably, requeueing it otherwise (default
	// 5s).
	StealAckTimeout time.Duration
	// HTTPClient is used for all peer traffic (default: a client with a
	// 10s timeout).
	HTTPClient *http.Client
	// NetFault, when set, routes every peer-bound request of this node
	// (probes, redirects, replication, steals, lookups) through the
	// fault engine's RoundTripper, and surfaces the engine's counters as
	// mrts_netfault_* metrics. Nil — the default — leaves the HTTP path
	// byte-identical to an unfaulted build.
	NetFault *netfault.Network
}

func (c *Config) defaults() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: config needs a Self ID")
	}
	found := false
	seen := make(map[string]bool, len(c.Members))
	for _, m := range c.Members {
		if m.ID == "" || m.Addr == "" {
			return fmt.Errorf("cluster: member %+v needs both ID and Addr", m)
		}
		if seen[m.ID] {
			return fmt.Errorf("cluster: duplicate member ID %q", m.ID)
		}
		seen[m.ID] = true
		if m.ID == c.Self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("cluster: Self %q not in member list", c.Self)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3
	}
	if c.SuspectGrace <= 0 {
		c.SuspectGrace = 2 * c.ProbeInterval
	}
	if c.StealInterval == 0 {
		c.StealInterval = 250 * time.Millisecond
	}
	if c.StealAckTimeout <= 0 {
		c.StealAckTimeout = 5 * time.Second
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
	return nil
}

// pushState is the owner-side view of one follower's replica stream: the
// batch sequence number and chained record CRC the follower must be at
// if no delivery was lost, reordered or corrupted.
type pushState struct {
	seq   uint64
	chain uint32
	init  bool // a full-history push established the stream
	reset bool // divergence detected: next push resends full history
}

// Node is one cluster member: it wraps a service.Server with
// fingerprint routing, acked journal replication to a follower,
// death-driven adoption with rejoin resync, and fenced work stealing.
// Create it with New, serve its Handler, and Close it before closing the
// underlying server.
type Node struct {
	cfg  Config
	srv  *service.Server
	ring *Ring
	mem  *Membership
	reps *replicaSet

	addrs    map[string]string // member ID -> base URL
	sortedID []string          // member IDs, sorted (follower order)

	mu            sync.Mutex
	pendingSteals map[string]*stealGrant

	// fence is the monotonic steal-grant counter, seeded above every
	// token the journal has ever recorded (service.MaxFence).
	fenceMu sync.Mutex
	fence   uint64

	// pushMu serializes replica pushes per node so the per-follower
	// sequence numbers and CRC chains cannot interleave.
	pushMu sync.Mutex
	pushes map[string]*pushState

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	redirects, proxiedLookups     *service.Counter
	replicatedOut, replicateFails *service.Counter
	replicatedIn                  *service.Counter
	stealsOut, stealsGranted      *service.Counter
	stealsAcked, stealsExpired    *service.Counter
	peerDeaths, adoptedJobs       *service.Counter

	fenceRejections, lateSettles  *service.Counter
	replicaResyncs, rejoinResyncs *service.Counter
	peerSuspects, peerRejoins     *service.Counter
}

// New wires a node around srv. The node registers its metrics in the
// server's registry (they appear on /metrics) and starts membership
// probing and — unless disabled — the steal loop.
func New(cfg Config, srv *service.Server) (*Node, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	reps, err := openReplicaSet(cfg.Dir)
	if err != nil {
		return nil, err
	}
	addrs := make(map[string]string, len(cfg.Members))
	ids := make([]string, 0, len(cfg.Members))
	var peers []Member
	for _, member := range cfg.Members {
		ids = append(ids, member.ID)
		addrs[member.ID] = member.Addr
		if member.ID != cfg.Self {
			peers = append(peers, member)
		}
	}
	sort.Strings(ids)
	nf := cfg.NetFault
	if nf != nil {
		// Route every peer-bound request of this node through the fault
		// engine. The shared client is copied so other nodes in the same
		// process (tests) can wrap their own identity.
		for id, addr := range addrs {
			if u, err := url.Parse(addr); err == nil && u.Host != "" {
				nf.Register(id, u.Host)
			}
		}
		c := *cfg.HTTPClient
		c.Transport = nf.Transport(cfg.Self, c.Transport)
		cfg.HTTPClient = &c
	}
	mem := newMembership(cfg.Self, peers, cfg.ProbeInterval, cfg.ProbeTimeout,
		cfg.DeadAfter, cfg.SuspectGrace, cfg.HTTPClient)
	// The member counts and the fault engine's counters (zero without
	// one) are read when /metrics renders.
	nfStats := func() netfault.Stats {
		if nf == nil {
			return netfault.Stats{}
		}
		return nf.Stats()
	}

	m := srv.Metrics()
	n := &Node{
		cfg:           cfg,
		srv:           srv,
		ring:          NewRing(ids),
		mem:           mem,
		reps:          reps,
		addrs:         addrs,
		sortedID:      ids,
		pendingSteals: make(map[string]*stealGrant),
		pushes:        make(map[string]*pushState),
		fence:         srv.MaxFence(),
		stop:          make(chan struct{}),

		redirects:      m.Counter("mrts_cluster_redirects_total"),
		proxiedLookups: m.Counter("mrts_cluster_proxied_lookups_total"),
		replicatedOut:  m.Counter("mrts_cluster_replicated_records_total"),
		replicateFails: m.Counter("mrts_cluster_replicate_failures_total"),
		replicatedIn:   m.Counter("mrts_cluster_replica_records_held_total"),
		stealsOut:      m.Counter("mrts_cluster_steals_total"),
		stealsGranted:  m.Counter("mrts_cluster_steals_granted_total"),
		stealsAcked:    m.Counter("mrts_cluster_steals_acked_total"),
		stealsExpired:  m.Counter("mrts_cluster_steals_expired_total"),
		peerDeaths:     m.Counter("mrts_cluster_peer_deaths_total"),
		adoptedJobs:    m.Counter("mrts_cluster_adopted_jobs_total"),
	}
	// Registration order is /metrics page order, so the func-backed
	// metrics register here, each in its place among the counters.
	m.GaugeFunc("mrts_cluster_alive_members", func() int64 { return int64(mem.AliveCount()) })
	n.fenceRejections = m.Counter("mrts_cluster_fence_rejections_total")
	n.lateSettles = m.Counter("mrts_cluster_steal_late_settles_total")
	n.replicaResyncs = m.Counter("mrts_cluster_replica_resyncs_total")
	n.rejoinResyncs = m.Counter("mrts_cluster_rejoin_resyncs_total")
	n.peerSuspects = m.Counter("mrts_cluster_peer_suspects_total")
	n.peerRejoins = m.Counter("mrts_cluster_peer_rejoins_total")
	m.GaugeFunc("mrts_cluster_suspect_members", func() int64 { return int64(mem.SuspectCount()) })
	m.CounterFunc("mrts_netfault_requests_total", func() int64 { return nfStats().Requests })
	m.CounterFunc("mrts_netfault_blocked_total", func() int64 { return nfStats().Blocked })
	m.CounterFunc("mrts_netfault_dropped_requests_total", func() int64 { return nfStats().DroppedRequests })
	m.CounterFunc("mrts_netfault_dropped_responses_total", func() int64 { return nfStats().DroppedResponses })
	m.CounterFunc("mrts_netfault_duplicated_total", func() int64 { return nfStats().Duplicated })
	m.CounterFunc("mrts_netfault_delayed_total", func() int64 { return nfStats().Delayed })

	mem.onDeath, mem.onSuspect, mem.onRejoin = n.onPeerDeath, n.onPeerSuspect, n.onPeerRejoin
	mem.Start()
	if n.cfg.StealInterval > 0 && len(peers) > 0 {
		n.wg.Add(1)
		go n.stealLoop()
	}
	return n, nil
}

// Self returns this node's member ID.
func (n *Node) Self() string { return n.cfg.Self }

// Ring exposes the placement ring (tests use it to predict owners).
func (n *Node) Ring() *Ring { return n.ring }

// Owner returns the member currently owning the given fingerprint.
func (n *Node) Owner(fp uint64) string { return n.ring.Owner(fp, n.mem.Alive) }

// follower returns the node self replicates to: the next alive member
// after self in sorted-ID order. "" when self is the only live member.
func (n *Node) follower() string {
	i := sort.SearchStrings(n.sortedID, n.cfg.Self)
	for k := 1; k < len(n.sortedID); k++ {
		id := n.sortedID[(i+k)%len(n.sortedID)]
		if id != n.cfg.Self && n.mem.Alive(id) {
			return id
		}
	}
	return ""
}

// nextFence issues the next monotonic fencing token for a steal grant,
// journaling it durably first: a restarted victim replays every grant
// record and resumes the counter above it, so a stale ack from before
// the restart can never match a fresh grant.
func (n *Node) nextFence(jobID, thief string) uint64 {
	n.fenceMu.Lock()
	n.fence++
	f := n.fence
	n.fenceMu.Unlock()
	n.srv.AppendRecord(journal.Record{Kind: journal.KindGrant, ID: jobID, Fence: f, Peer: thief}, true)
	return f
}

// onPeerSuspect marks a peer quiet-but-not-yet-dead: routing and
// follower selection already avoid it (Membership.Alive is false), but
// adoption waits for the suspect grace to expire. A transient partition
// heals inside the grace without any duplicate executions.
func (n *Node) onPeerSuspect(id string) {
	n.peerSuspects.Inc()
}

// onPeerDeath adopts whatever the dead peer replicated to this node:
// completed jobs keep serving their results here, unfinished jobs are
// re-run locally to byte-identical results. Every surviving holder of a
// replica stream adopts its share — duplicate adoption across nodes is
// harmless (deterministic jobs, at-least-once).
func (n *Node) onPeerDeath(id string) {
	n.peerDeaths.Inc()
	recs := n.reps.snapshot(id)
	if len(recs) == 0 {
		return
	}
	requeued, completed := n.srv.Adopt(recs)
	n.adoptedJobs.Add(int64(requeued + completed))
	// Only now, with every adopted job in the local table, does the
	// stream stop answering pending lookups (routeJob).
	n.reps.setAdopted(id, true)
	// The adopted unfinished jobs are now this node's responsibility:
	// replicate their submit records onward so a second death does not
	// lose them either.
	if f := n.follower(); f != "" && requeued > 0 {
		n.pushRecords(f, recs)
	}
}

// onPeerRejoin runs when a peer declared dead comes back: by now this
// node may have adopted and completed the peer's jobs, and the healed
// peer still holds the same jobs queued — about to double-run them. The
// resync pushes the terminal states back so the peer resolves its copies
// with the already-computed (byte-identical) results instead.
func (n *Node) onPeerRejoin(id string) {
	n.peerRejoins.Inc()
	n.reps.setAdopted(id, false)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.resyncRejoined(id)
	}()
}

// resyncRejoined sends the terminal states of every job this node holds
// from the rejoined peer's replica stream back to it.
func (n *Node) resyncRejoined(peer string) {
	addr, ok := n.addrs[peer]
	if !ok {
		return
	}
	var jobs []resyncJob
	for _, rec := range n.reps.snapshot(peer) {
		if rec.Kind != journal.KindSubmit {
			continue
		}
		j, ok := n.srv.Job(rec.ID)
		if !ok {
			continue
		}
		st := n.srv.Status(j, true)
		if !st.State.Terminal() {
			continue
		}
		jobs = append(jobs, resyncJob{ID: st.ID, State: st.State, Error: st.Error, Result: st.Result})
	}
	if len(jobs) == 0 {
		return
	}
	var resp resyncResponse
	if err := n.postJSON(addr+"/cluster/v1/resync", resyncRequest{From: n.cfg.Self, Jobs: jobs}, &resp); err != nil {
		return // the peer re-runs; duplicates are byte-identical
	}
	n.rejoinResyncs.Add(int64(resp.Resolved))
}

// chainCRC folds records into a running CRC32 chain over their canonical
// JSON encodings — the divergence detector of the replication protocol.
func chainCRC(prev uint32, recs []journal.Record) uint32 {
	h := prev
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			continue // unmarshalable records cannot ride the wire either
		}
		h = crc32.Update(h, crc32.IEEETable, b)
	}
	return h
}

// pushRecords replicates records to peer's replica endpoint with an
// explicit ack: every batch carries a sequence number, and the
// follower's response echoes the sequence and CRC chain it is now at.
// Any mismatch — a lost, duplicated-with-loss, reordered or corrupted
// delivery, or a follower restart — marks the stream diverged, and the
// next push (retried immediately once) resends the full history with
// Reset set, rebuilding the follower's replica from the owner's
// authoritative job table. Returns the transport error; callers on the
// ack path treat failure as degraded durability, not as a reason to
// reject the job.
func (n *Node) pushRecords(peer string, recs []journal.Record) error {
	addr, ok := n.addrs[peer]
	if !ok || len(recs) == 0 {
		return nil
	}
	n.pushMu.Lock()
	defer n.pushMu.Unlock()
	err := n.pushLocked(peer, addr, recs)
	if err == nil {
		return nil
	}
	if st := n.pushes[peer]; st != nil && st.reset {
		// Divergence (not transport failure): retry once with the full
		// history before giving up until the next push.
		err = n.pushLocked(peer, addr, recs)
	}
	if err != nil {
		n.replicateFails.Inc()
	}
	return err
}

// pushLocked sends one replica batch (pushMu held). A follower this node
// has not pushed to yet — or one marked diverged — gets the full history
// (owner job table plus the new records) with Reset set.
func (n *Node) pushLocked(peer, addr string, recs []journal.Record) error {
	st := n.pushes[peer]
	if st == nil {
		st = &pushState{}
		n.pushes[peer] = st
	}
	payload := recs
	reset := false
	if !st.init || st.reset {
		// Full history: the submit/complete records of every job this
		// node retains. The new records ride along; duplicate submits
		// fold idempotently on replay.
		payload = append(n.srv.ExportRecords(), recs...)
		reset = true
		st.chain = 0
		st.seq = 0
	}
	want := chainCRC(st.chain, payload)
	var resp replicateResponse
	err := n.postJSON(addr+"/cluster/v1/replicate", replicateRequest{
		From:    n.cfg.Self,
		Seq:     st.seq + 1,
		Reset:   reset,
		Records: payload,
	}, &resp)
	if err != nil {
		// Unknown whether the follower applied the batch: mark diverged
		// so the next successful push rebuilds the stream.
		st.reset = true
		return err
	}
	if resp.Seq != st.seq+1 || resp.CRC != want {
		st.reset = true
		n.replicaResyncs.Inc()
		return fmt.Errorf("cluster: replica %s diverged (seq %d/%d crc %08x/%08x)",
			peer, resp.Seq, st.seq+1, resp.CRC, want)
	}
	st.seq++
	st.chain = want
	st.init = true
	st.reset = false
	n.replicatedOut.Add(int64(len(payload)))
	return nil
}

// admitOwned is the owner-side submission path: replicate the submit
// record to the follower first, then admit locally under the
// pre-replicated ID, so a death of this node after the ack is covered
// by the follower's copy. id is empty for fresh client submissions and
// set for steal handoffs (the victim already named the job).
func (n *Node) admitOwned(id, key string, spec api.JobSpec) (*service.Job, bool, error) {
	if id == "" {
		// A client replay of an idempotency key must not plant a second
		// submit record in the follower's replica stream.
		if j, ok := n.srv.LookupIdem(key); ok {
			return j, true, nil
		}
		id = service.NewJobID()
	}
	follower := n.follower()
	if follower != "" {
		// Synchronous: the ack the client is about to receive promises
		// the job survives this node's death. A failed push degrades to
		// local-journal durability only (counted, not fatal).
		_ = n.pushRecords(follower, []journal.Record{{
			Kind:    journal.KindSubmit,
			ID:      id,
			Time:    time.Now().UTC().Format(time.RFC3339Nano),
			IdemKey: key,
			Spec:    &spec,
		}})
	}
	job, deduped, err := n.srv.SubmitWithID(id, key, spec)
	if err != nil {
		if follower != "" {
			// Void the replica entry so the follower does not resurrect
			// a job that was never admitted.
			_ = n.pushRecords(follower, []journal.Record{{Kind: journal.KindForget, ID: id}})
		}
		return nil, false, err
	}
	if !deduped {
		n.wg.Add(1)
		go n.watchComplete(job)
	}
	return job, deduped, nil
}

// watchComplete replicates a job's terminal record to the follower once
// it finishes, so the follower can serve the result (not just re-run
// the job) if this node dies later.
func (n *Node) watchComplete(j *service.Job) {
	defer n.wg.Done()
	select {
	case <-n.stop:
		return
	case <-j.Done():
	}
	st := n.srv.Status(j, true)
	if f := n.follower(); f != "" {
		_ = n.pushRecords(f, []journal.Record{{
			Kind:   journal.KindComplete,
			ID:     j.ID,
			Time:   time.Now().UTC().Format(time.RFC3339Nano),
			State:  st.State,
			Error:  st.Error,
			Result: st.Result,
		}})
	}
}

// Close stops probing, stealing and watchers, requeues any unacked
// steal grants, and closes the replica journals. The underlying
// service.Server is not closed — the caller owns it.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.mem.Close()
	n.wg.Wait()
	n.mu.Lock()
	grants := make([]*stealGrant, 0, len(n.pendingSteals))
	for id, g := range n.pendingSteals {
		delete(n.pendingSteals, id)
		grants = append(grants, g)
	}
	n.mu.Unlock()
	for _, g := range grants {
		g.timer.Stop()
		n.srv.Requeue(g.job)
	}
	n.reps.close()
}
