package cluster

import (
	"net/http"
	"time"

	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/journal"
)

// Work stealing moves a queued job's computation to an idle node, not
// the job. The job stays in its owner's table, journal and follower
// replica from its acknowledgement to its completion:
//
//  1. An idle thief asks the hottest peer, the victim, for work through
//     /cluster/v1/steal. The victim takes its oldest durable queued job
//     (service.TakeQueued: the job stays in the table, reading queued),
//     leases it to the thief, and answers with its ID and spec. Nothing
//     is journaled.
//  2. The thief runs the spec on its server's execution path
//     (service.Execute), holding the ID in its in-flight set meanwhile.
//     A done result is posted to the victim's /cluster/v1/resync, and the
//     ID leaves the set only after that post returns. A failed run posts
//     nothing.
//  3. The victim's Resolve settles the job with the posted result. Its
//     complete record is journaled and replicated like a local
//     completion, and the lease is acked.
//  4. A lease whose result has not landed is checked every
//     StealAckTimeout: a thief still running the job (/cluster/v1/holds
//     answers 204) keeps it; otherwise the victim requeues the job and
//     runs it itself.
//
// No steal message moves the job, so no interleaving of them can lose it.
// The worst case is that the thief and the owner, or two thieves, both
// compute it; jobs are deterministic, so the results are byte-identical
// and the owner keeps the first. See DESIGN.md §11.4.

// lease is one victim-side job out with a thief.
type lease struct {
	job   *service.Job
	thief string
	timer *time.Timer
}

// grantLease takes one queued job for a thief and arms the lease check.
// Returns nil when nothing is queued.
func (n *Node) grantLease(thief string) *service.Job {
	job, ok := n.srv.TakeQueued()
	if !ok {
		return nil
	}
	l := &lease{job: job, thief: thief}
	n.mu.Lock()
	n.leases[job.ID] = l
	l.timer = time.AfterFunc(n.cfg.StealAckTimeout, func() { n.checkLease(l) })
	n.mu.Unlock()
	n.stealsGranted.Inc()
	return job
}

// checkLease runs when a lease's period ends without its result: a job
// no longer taken (cancelled meanwhile) drops the lease, a thief still
// running the job re-arms it, and anything else requeues the job here.
func (n *Node) checkLease(l *lease) {
	n.mu.Lock()
	live := n.leases[l.job.ID] == l
	n.mu.Unlock()
	if !live {
		return // settled, or the node is closing
	}
	if n.srv.Taken(l.job) && n.thiefHolds(l.thief, l.job.ID) {
		l.timer.Reset(n.cfg.StealAckTimeout)
		return
	}
	if n.dropLease(l.job.ID) != nil && n.srv.Requeue(l.job) {
		n.stealsExpired.Inc()
	}
}

// dropLease removes id's lease and stops its timer, returning it (nil
// when id has none).
func (n *Node) dropLease(id string) *lease {
	n.mu.Lock()
	defer n.mu.Unlock()
	l, ok := n.leases[id]
	if !ok {
		return nil
	}
	delete(n.leases, id)
	l.timer.Stop()
	return l
}

// thiefHolds asks the thief's in-flight lookup (handleHolds) whether it
// is still running the job.
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

// running reports whether this node is running the leased job id.
func (n *Node) running(id string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.inflight[id]
}

// stealLoop runs on every node: when the local queue is empty, find the
// alive peer with the deepest queue and run one job leased from it.
// Steals are sequential, so at most one stolen job runs beside the
// worker pool.
func (n *Node) stealLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-n.ctx.Done():
			return
		case <-t.C:
			if n.srv.QueueLen() > 0 || !n.srv.Ready() {
				continue // busy, or not admitting work
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

// stealOnce leases one job from victim, runs it, and posts a done
// result back.
func (n *Node) stealOnce(victim string) {
	addr := n.addrs[victim]
	var got stealResponse
	err := n.postJSON(addr+"/cluster/v1/steal", stealRequest{Thief: n.cfg.Self}, &got)
	if err != nil || got.ID == "" {
		return // empty queue (204) or transport failure
	}
	n.stealsOut.Inc()
	n.mu.Lock()
	n.inflight[got.ID] = true
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.inflight, got.ID)
		n.mu.Unlock()
	}()
	res, err := n.srv.Execute(n.ctx, got.Spec)
	if err != nil {
		return // the victim's lease check requeues the job
	}
	// A lost post is covered the same way: once the ID leaves the
	// in-flight set, the lease check requeues the job on the victim.
	_ = n.postJSON(addr+"/cluster/v1/resync", resyncRequest{From: n.cfg.Self, Jobs: []resyncJob{{
		ID: got.ID, State: api.StateDone, Result: res,
	}}}, nil)
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
