package cluster

import (
	"net/http"
	"time"

	"mrts/internal/service"
	"mrts/internal/service/journal"
)

// Work stealing moves queued-but-unstarted jobs from hot shards to idle
// nodes. The handoff is two-phase and fenced so a job can never be lost
// mid-steal, and a stale or duplicated ack can never settle the wrong
// grant:
//
//  1. The thief polls a hot victim's /cluster/v1/steal, naming itself.
//     The victim removes one queued job from its pool
//     (service.TakeQueued — the job stays in its table),
//     journals a grant record carrying a fresh monotonic fencing token,
//     and grants the job with that token and an ack deadline.
//  2. The thief replicates the submit record to its own follower,
//     admits the job locally under the original ID (durably journaled),
//     and only then acks via /cluster/v1/steal-ack, echoing the fence.
//     The victim checks the fence against the outstanding grant —
//     a stale ack (an earlier grant of the same job, duplicated or
//     delayed by the network) is rejected and counted — and Forgets the
//     job, journaling a forget record that voids its submit.
//
// If the ack never arrives, the ack timer fires and the victim settles
// the grant itself: it first asks the thief whether it holds the job
// durably (the ack was lost in flight, not the handoff) and Forgets it
// if so; only a thief that never admitted the job, or has granted it
// away again, gets it requeued locally. The worst case in every failure
// interleaving is a duplicate execution — byte-identical, because jobs
// are deterministic — never a lost job. Without fencing there was a
// genuine loss window: after expiry + requeue + re-grant to a second
// thief, a duplicated delivery of the FIRST thief's ack could Forget the
// job while the second thief had not admitted it yet.

// stealGrant is one victim-side outstanding handoff.
type stealGrant struct {
	job   *service.Job
	fence uint64
	thief string
	timer *time.Timer
}

// grantSteal removes one queued job for a thief and arms the ack timer.
// Returns nil when nothing is queued.
func (n *Node) grantSteal(thief string) (*service.Job, uint64) {
	job, ok := n.srv.TakeQueued()
	if !ok {
		return nil, 0
	}
	fence := n.nextFence(job.ID, thief)
	g := &stealGrant{job: job, fence: fence, thief: thief}
	n.mu.Lock()
	n.pendingSteals[job.ID] = g
	n.mu.Unlock()
	g.timer = time.AfterFunc(n.cfg.StealAckTimeout, func() { n.expireSteal(g) })
	n.stealsGranted.Inc()
	return job, fence
}

// expireSteal settles a grant whose ack never arrived. Before requeueing
// — which re-runs the job here while the thief may ALSO run it — the
// victim asks the thief whether it holds the job durably: a reachable
// thief that admitted the job just lost the ack, and the right
// settlement is the same Forget the ack would have done. Only an
// unreachable thief or one that never admitted gets the job requeued
// (duplicate-run window, documented above). The grant stays outstanding
// until the settlement has run (see withdraw).
func (n *Node) expireSteal(g *stealGrant) {
	n.mu.Lock()
	cur, pending := n.pendingSteals[g.job.ID]
	n.mu.Unlock()
	if !pending || cur != g {
		return // acked (or superseded) between the timer firing and now
	}
	n.stealsExpired.Inc()
	if g.thief != "" && n.thiefHolds(g.thief, g.job.ID) {
		n.lateSettles.Inc()
		n.srv.Forget(g.job.ID)
	} else {
		n.srv.Requeue(g.job)
	}
	n.withdraw(g)
}

// withdraw removes a settled grant from pendingSteals, reporting whether
// it was still outstanding. Both settlements (ackSteal, expireSteal) run
// Forget or Requeue first and withdraw second, so while a job's fate
// here is undecided its grant is visible to grantedAway.
func (n *Node) withdraw(g *stealGrant) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pendingSteals[g.job.ID] != g {
		return false
	}
	delete(n.pendingSteals, g.job.ID)
	return true
}

// grantedAway reports whether this node granted id to a thief and has
// not settled that grant. The copy of such a job here is the taken one,
// which the settlement may yet Forget, so this node neither admits a
// steal of the job back (stealOnce) nor tells a victim that it holds the
// job (handleHolds). See DESIGN.md §11.4.
func (n *Node) grantedAway(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.pendingSteals[id]
	return ok
}

// thiefHolds asks the thief's steal-side lookup (handleHolds) whether it
// holds the job.
func (n *Node) thiefHolds(thief, id string) bool {
	addr, ok := n.addrs[thief]
	if !ok {
		return false
	}
	resp, err := n.cfg.HTTPClient.Get(addr + "/cluster/v1/holds/" + id)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent
}

// ackSteal settles a granted handoff: the thief holds the job durably,
// so this node forgets it. The fence must match the outstanding grant —
// a stale ack carrying an earlier token is rejected (counted)
// without touching the job. Returns false for unknown, expired or
// fence-rejected grants.
func (n *Node) ackSteal(id string, fence uint64) bool {
	n.mu.Lock()
	g, ok := n.pendingSteals[id]
	n.mu.Unlock()
	if !ok {
		return false
	}
	if g.fence != fence {
		n.fenceRejections.Inc()
		return false
	}
	g.timer.Stop()
	forgot := n.srv.Forget(id)
	if n.withdraw(g) {
		n.stealsAcked.Inc()
	}
	return forgot
}

// stealLoop runs on every node: when the local queue is empty, find the
// alive peer with the deepest queue and pull one job from it.
func (n *Node) stealLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			if n.srv.QueueLen() > 0 || !n.srv.Ready() {
				continue // busy, draining, or unable to journal a stolen job
			}
			victim := n.hottestPeer()
			if victim == "" {
				continue
			}
			n.stealOnce(victim)
		}
	}
}

// hottestPeer returns the alive peer with the deepest queue, or "" when
// no peer has queued work.
func (n *Node) hottestPeer() string {
	best, bestDepth := "", 0
	for id, addr := range n.addrs {
		if id == n.cfg.Self || !n.mem.Alive(id) {
			continue
		}
		var st statsResponse
		if err := n.getJSON(addr+"/cluster/v1/stats", &st); err != nil {
			continue
		}
		if st.Queue > bestDepth {
			best, bestDepth = id, st.Queue
		}
	}
	return best
}

// stealOnce pulls one job from victim and executes the thief side of
// the handoff.
func (n *Node) stealOnce(victim string) {
	addr := n.addrs[victim]
	var grant stealResponse
	err := n.postJSON(addr+"/cluster/v1/steal", stealRequest{Thief: n.cfg.Self}, &grant)
	if err != nil || grant.ID == "" {
		return // empty queue (204) or transport failure
	}
	if n.grantedAway(grant.ID) {
		// This node granted the job away and the grant is unsettled: its
		// copy here is the taken one, and deduping the admission onto it
		// would ack the victim into forgetting the live copy while the
		// grant may still Forget this one. Leave the grant to the
		// victim's timer; handleHolds answers "not held" until it
		// settles.
		return
	}
	// admitOwned replicates to our follower, then journals the job
	// durably here under the victim's ID.
	job, _, err := n.admitOwned(grant.ID, grant.IdemKey, grant.Spec)
	if err != nil {
		return // unacked: the victim's timer settles it
	}
	if job.ID != grant.ID {
		// Admission must land on the granted ID (SubmitWithID guarantees
		// it); acking an ID this node does not hold would make the victim
		// Forget the only copy. Leave the grant to the victim's timer.
		return
	}
	// Ack failure is also covered by the victim's timer: it sees the job
	// held here and forgets it (or requeues if we are unreachable, and
	// both copies run to the same bytes).
	_ = n.postJSON(addr+"/cluster/v1/steal-ack", ackRequest{ID: grant.ID, Fence: grant.Fence}, nil)
	n.stealsOut.Inc()
}

// storeReplica accepts one replica batch pushed by a peer (the receive
// side of pushRecords), returning the follower's resulting sequence
// number and CRC chain for the ack.
func (n *Node) storeReplica(from string, seq uint64, reset bool, recs []journal.Record) (uint64, uint32, error) {
	curSeq, curChain, applied, err := n.reps.apply(from, seq, reset, recs)
	if applied {
		n.replicatedIn.Add(int64(len(recs)))
	}
	return curSeq, curChain, err
}
