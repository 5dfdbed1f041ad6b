package service

import "container/list"

// idemTable is the bounded idempotency dedupe table: client keys map to
// job IDs so a retried POST lands on the already-created job. It is an
// LRU — beyond cap the least-recently-used key is evicted, which degrades
// gracefully: an evicted key's retry is accepted as a fresh submission
// (at-least-once, deterministic jobs ⇒ identical result) instead of the
// table growing without bound across a long-lived server. Guarded by the
// owning Server's mu.
type idemTable struct {
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	entries *Gauge
}

type idemEntry struct {
	key   string
	jobID string
}

// DefaultIdemTableSize bounds the idempotency table when Options leave
// IdemTableSize zero.
const DefaultIdemTableSize = 4096

func newIdemTable(capacity int, m *Metrics) *idemTable {
	if capacity <= 0 {
		capacity = DefaultIdemTableSize
	}
	return &idemTable{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		entries: m.Gauge("mrts_idem_entries"),
	}
}

// get returns the job ID mapped to key, marking it most recently used.
func (t *idemTable) get(key string) (string, bool) {
	el, ok := t.items[key]
	if !ok {
		return "", false
	}
	t.ll.MoveToFront(el)
	return el.Value.(*idemEntry).jobID, true
}

// put maps key to jobID, evicting the least-recently-used mapping when
// the table is full.
func (t *idemTable) put(key, jobID string) {
	if el, ok := t.items[key]; ok {
		el.Value.(*idemEntry).jobID = jobID
		t.ll.MoveToFront(el)
		return
	}
	t.items[key] = t.ll.PushFront(&idemEntry{key: key, jobID: jobID})
	if t.ll.Len() > t.cap {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.items, oldest.Value.(*idemEntry).key)
	}
	t.entries.Set(int64(t.ll.Len()))
}

// remove drops key's mapping if it still points at jobID (a newer job may
// have taken the key over).
func (t *idemTable) remove(key, jobID string) {
	el, ok := t.items[key]
	if !ok || el.Value.(*idemEntry).jobID != jobID {
		return
	}
	t.ll.Remove(el)
	delete(t.items, key)
	t.entries.Set(int64(t.ll.Len()))
}

// len returns the number of live mappings.
func (t *idemTable) len() int { return t.ll.Len() }

// snapshot copies the key → job-ID mappings (tests and debugging).
func (t *idemTable) snapshot() map[string]string {
	out := make(map[string]string, len(t.items))
	for k, el := range t.items {
		out[k] = el.Value.(*idemEntry).jobID
	}
	return out
}
