package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"mrts/internal/service"
	"mrts/internal/service/journal"
)

// replicaSet stores the journal records peers have replicated to this
// node, one stream per origin peer. Records are always held in memory —
// adoption folds the in-memory stream — and, when a directory is
// configured, also appended to a per-peer on-disk journal so a restart
// of this node still covers a double fault (peer dies while we are down
// or right after we come back).
//
// Each stream carries the replication protocol's cursor: the last
// applied batch sequence number and the CRC32 chain over every applied
// record. Both are echoed back to the owner as the ack; a mismatch on
// the owner side triggers a full-history reset push that rebuilds the
// stream (reset).
type replicaSet struct {
	dir string // "" = memory only

	mu    sync.Mutex
	peers map[string]*peerReplica
}

type peerReplica struct {
	recs  []journal.Record
	j     *journal.Journal // nil when memory-only
	seq   uint64           // last applied batch sequence (0 until a reset batch arrives)
	chain uint32           // CRC chain over applied records
	// adopted is set once the origin's death has folded the stream into
	// this node's job table, and cleared when the origin rejoins.
	adopted bool
}

// replicaPrefix names the per-peer journal directories inside dir.
const replicaPrefix = "replica-"

// openReplicaSet loads any per-peer replica journals that survived a
// restart of this node, so previously replicated records are not lost
// with the process. The protocol cursor is not persisted: a reloaded
// stream reports seq 0, which the owner sees as divergence and answers
// with a full reset push — the cheap, always-correct way to resume.
func openReplicaSet(dir string) (*replicaSet, error) {
	rs := &replicaSet{dir: dir, peers: make(map[string]*peerReplica)}
	if dir == "" {
		return rs, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: replicas: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cluster: replicas: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), replicaPrefix) {
			continue
		}
		peer := strings.TrimPrefix(e.Name(), replicaPrefix)
		j, err := journal.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("cluster: replica for %s: %w", peer, err)
		}
		rs.peers[peer] = &peerReplica{recs: j.Replayed(), j: j}
	}
	return rs, nil
}

// apply folds one replica batch from an origin peer into its stream.
//
//   - reset replaces the stream wholesale (memory and disk) with the
//     batch — the owner's authoritative full history.
//   - seq == cur+1 appends in order.
//   - seq <= cur is a duplicated delivery: skipped, idempotently — the
//     ack still reports the current cursor, which matches what the owner
//     expects for the original delivery.
//   - any other gap is left unapplied; the mismatching ack makes the
//     owner resend the full history.
//
// It returns the resulting cursor and whether the batch was applied.
// Disk failures degrade durability, not availability: the in-memory
// stream still covers a single fault.
func (rs *replicaSet) apply(peer string, seq uint64, reset bool, recs []journal.Record) (uint64, uint32, bool, error) {
	if peer == "" {
		return 0, 0, false, nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	pr, ok := rs.peers[peer]
	if !ok {
		pr = &peerReplica{}
		rs.peers[peer] = pr
	}
	switch {
	case reset:
		err := rs.resetLocked(peer, pr, recs)
		pr.seq = seq
		pr.chain = chainCRC(0, recs)
		return pr.seq, pr.chain, true, err
	case seq == pr.seq+1 && pr.seq > 0:
		err := rs.appendLocked(peer, pr, recs)
		pr.seq = seq
		pr.chain = chainCRC(pr.chain, recs)
		return pr.seq, pr.chain, true, err
	default:
		// Duplicate (seq <= cur) or gap (seq > cur+1, or a non-reset
		// first batch): report the cursor as-is and let the owner decide.
		return pr.seq, pr.chain, false, nil
	}
}

// appendLocked appends records to an established stream (rs.mu held).
func (rs *replicaSet) appendLocked(peer string, pr *peerReplica, recs []journal.Record) error {
	var err error
	if pr.j == nil && rs.dir != "" {
		j, jerr := journal.Open(filepath.Join(rs.dir, replicaPrefix+peer))
		if jerr != nil {
			err = jerr // keep the memory stream regardless
		} else {
			pr.j = j
		}
	}
	// The replica is a secondary copy: the owner holds the primary in
	// its own journal. Async appends ride the journal's group commit.
	for _, r := range recs {
		if pr.j != nil {
			if aerr := pr.j.AppendAsync(r); aerr != nil && err == nil {
				err = aerr
			}
		}
	}
	pr.recs = append(pr.recs, recs...)
	return err
}

// resetLocked replaces the stream — memory and on-disk journal — with
// the given records (rs.mu held).
func (rs *replicaSet) resetLocked(peer string, pr *peerReplica, recs []journal.Record) error {
	var err error
	if pr.j != nil {
		err = pr.j.Close()
		pr.j = nil
	}
	if rs.dir != "" {
		path := filepath.Join(rs.dir, replicaPrefix+peer)
		if rerr := os.RemoveAll(path); rerr != nil && err == nil {
			err = rerr
		}
	}
	pr.recs = nil
	if aerr := rs.appendLocked(peer, pr, recs); aerr != nil && err == nil {
		err = aerr
	}
	return err
}

// snapshot returns a copy of the records replicated by peer.
func (rs *replicaSet) snapshot(peer string) []journal.Record {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	pr, ok := rs.peers[peer]
	if !ok {
		return nil
	}
	return append([]journal.Record(nil), pr.recs...)
}

// setAdopted marks whether peer's stream has been adopted.
func (rs *replicaSet) setAdopted(peer string, adopted bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if pr, ok := rs.peers[peer]; ok {
		pr.adopted = adopted
	}
}

// pending returns the origins of the streams not yet adopted that hold
// id as a job their adoption would install.
func (rs *replicaSet) pending(id string) []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []string
	for peer, pr := range rs.peers {
		if !pr.adopted && service.Adoptable(pr.recs, id) {
			out = append(out, peer)
		}
	}
	return out
}

// close flushes and closes every on-disk replica journal.
func (rs *replicaSet) close() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, pr := range rs.peers {
		if pr.j != nil {
			_ = pr.j.Close()
		}
	}
}
