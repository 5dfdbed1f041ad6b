package service

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
	"time"

	"mrts/internal/batch"
	"mrts/internal/workload"
)

// CodeVersion salts every cache key. Bump it whenever a change to the
// simulator, runtime systems, workload substrate or ISE library can alter
// results, so stale entries from a previous binary can never be served
// (relevant once the cache is persisted or shared between replicas).
const CodeVersion = "mrts-sim-v1"

// WorkloadKey returns the content-addressed key of a workload build:
// hashing the canonical options (fixed field order, defaults applied)
// gives two requests that mean the same workload the same key no matter
// how sparsely they were spelled.
func WorkloadKey(opts workload.Options) string {
	return hashJSON(struct {
		Version  string           `json:"version"`
		Workload workload.Options `json:"workload"`
	}{CodeVersion, opts.Canonical()})
}

func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// The key structs hold only plain data; this cannot fail.
		panic("service: cache key marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// WorkloadCache deduplicates workload builds: concurrent jobs over the
// same (video, encoder) parameters run the H.264 encode once and share
// the resulting trace (singleflight), and completed builds stay cached in
// a small LRU because traces are the most expensive artifact the service
// produces. Each entry is a batch.Engine over the built workload — the
// service's one report memo: every job on the workload shares its point
// memo. A *workload.Result is immutable after
// Build, so sharing one instance across concurrent simulations is safe —
// the simulator and runtime systems only read it.
type WorkloadCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // completed entries, front = most recently used
	items map[string]*workEntry

	hits, misses, waits, evictions *Counter
	buildSeconds                   *Histogram
}

type workEntry struct {
	key  string
	done chan struct{} // closed when the build finishes
	eng  *batch.Engine
	err  error
	el   *list.Element // non-nil once the entry is in the LRU list
}

// NewWorkloadCache creates a cache keeping at most capacity built
// workloads (capacity <= 0 means 16) and registers its metrics.
func NewWorkloadCache(capacity int, m *Metrics) *WorkloadCache {
	if capacity <= 0 {
		capacity = 16
	}
	return &WorkloadCache{
		cap:          capacity,
		ll:           list.New(),
		items:        make(map[string]*workEntry),
		hits:         m.Counter("mrts_workload_cache_hits_total"),
		misses:       m.Counter("mrts_workload_cache_misses_total"),
		waits:        m.Counter("mrts_workload_cache_shared_builds_total"),
		evictions:    m.Counter("mrts_workload_cache_evictions_total"),
		buildSeconds: m.Histogram("mrts_workload_build_seconds"),
	}
}

// Get returns the cache entry for opts, building the workload if no other
// job already has. If a build for the same options is in flight, Get waits
// for it instead of encoding the sequence a second time. The build itself
// is not interrupted by ctx (another waiter may still want it); only the
// wait is.
func (c *WorkloadCache) Get(ctx context.Context, opts workload.Options) (*workEntry, error) {
	key := WorkloadKey(opts)

	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		select {
		case <-e.done: // completed: a plain cache hit
			if e.err == nil {
				c.hits.Inc()
				c.ll.MoveToFront(e.el)
			}
		default: // in flight: join the build
			c.waits.Inc()
		}
		c.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
		return e, e.err
	}
	e := &workEntry{key: key, done: make(chan struct{})}
	c.items[key] = e
	c.misses.Inc()
	c.mu.Unlock()

	start := time.Now()
	w, err := workload.Build(opts)
	if e.err = err; err == nil {
		e.eng = batch.New(w, 0)
	}
	c.buildSeconds.Observe(time.Since(start).Seconds())
	close(e.done)

	c.mu.Lock()
	if e.err != nil {
		// Do not cache failures: a later retry should rebuild.
		delete(c.items, key)
	} else {
		e.el = c.ll.PushFront(e)
		if c.ll.Len() > c.cap {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*workEntry).key)
			c.evictions.Inc()
		}
	}
	c.mu.Unlock()
	return e, e.err
}

// Len returns the number of completed cached workloads.
func (c *WorkloadCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
