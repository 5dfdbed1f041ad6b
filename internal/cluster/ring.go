// Package cluster turns N mrts-serve nodes into one logical service: a
// consistent-hash ring routes every job to an owning node by workload
// fingerprint (so repeated submissions of the same spec land on the node
// whose caches are already warm), a static-seed membership layer probes
// peers and drives failover, every owner streams its journal records to a
// designated follower so a killed node's unfinished jobs are re-run by
// the follower to byte-identical results, and idle nodes steal queued
// work from hot shards over an internal endpoint.
//
// The layer is deliberately thin: placement, replication and stealing
// live here; admission and execution stay in internal/service's Server.
// Jobs are deterministic, which is what makes
// the whole failure model cheap — re-running a lost job anywhere always
// reproduces the original bytes, so the cluster only ever needs
// at-least-once delivery, never consensus.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"mrts/internal/service/api"
)

// VNodes is the number of virtual nodes each member projects onto the
// ring. 64 keeps the load spread within a few percent of uniform for
// small clusters while the ring stays tiny (N*64 entries).
const VNodes = 64

// Fingerprint hashes a job spec to its ring key. Specs that are
// byte-identical under canonical JSON encoding hash identically, so a
// client retry — or the same figure requested twice — routes to the same
// owner and hits its warm caches. Volatile fields (timeout) are excluded
// so they cannot split placement for otherwise identical work.
func Fingerprint(spec api.JobSpec) uint64 {
	spec.TimeoutSec = 0
	b, err := json.Marshal(spec)
	if err != nil {
		// api.JobSpec is plain data; Marshal cannot fail on it. Keep a
		// deterministic fallback anyway.
		b = []byte(fmt.Sprintf("%+v", spec))
	}
	sum := sha256.Sum256(b)
	return binary.BigEndian.Uint64(sum[:8])
}

// Ring is a consistent-hash ring over member IDs. It is immutable after
// construction — liveness is layered on at lookup time via the alive
// predicate, so a flapping member never restructures the ring (and thus
// never reshuffles placement of the surviving members' keys).
type Ring struct {
	vnodes []vnode
}

type vnode struct {
	hash   uint64
	member string
}

// NewRing builds the ring for the given member IDs.
func NewRing(members []string) *Ring {
	r := &Ring{vnodes: make([]vnode, 0, len(members)*VNodes)}
	for _, m := range members {
		for i := 0; i < VNodes; i++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", m, i)))
			r.vnodes = append(r.vnodes, vnode{
				hash:   binary.BigEndian.Uint64(sum[:8]),
				member: m,
			})
		}
	}
	sort.Slice(r.vnodes, func(i, j int) bool {
		a, b := r.vnodes[i], r.vnodes[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.member < b.member // deterministic tie-break
	})
	return r
}

// Owner returns the member owning key: the first alive member at or
// after key's position on the ring, wrapping around. Failover is a walk
// along the successors, so when a member dies its keys spill to the next
// alive members and everyone else's placement is untouched. Returns ""
// only when no member is alive.
func (r *Ring) Owner(key uint64, alive func(string) bool) string {
	if len(r.vnodes) == 0 {
		return ""
	}
	start := sort.Search(len(r.vnodes), func(i int) bool {
		return r.vnodes[i].hash >= key
	})
	seen := make(map[string]bool)
	for i := 0; i < len(r.vnodes); i++ {
		v := r.vnodes[(start+i)%len(r.vnodes)]
		if seen[v.member] {
			continue
		}
		seen[v.member] = true
		if alive == nil || alive(v.member) {
			return v.member
		}
	}
	return ""
}

// Members returns the distinct member IDs on the ring, sorted.
func (r *Ring) Members() []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range r.vnodes {
		if !seen[v.member] {
			seen[v.member] = true
			out = append(out, v.member)
		}
	}
	sort.Strings(out)
	return out
}
