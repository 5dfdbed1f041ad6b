package service

import (
	"math"
	"sync"
	"time"
)

// rateLimiter is a per-client token bucket: each client key owns a
// bucket of burst tokens refilled at rate tokens/second, and each
// admission consumes one. It answers not just yes/no but, on a no, how
// long until a token is available — the Retry-After hint the HTTP layer
// sends back so well-behaved clients pace themselves instead of
// hammering a saturated daemon.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxBuckets bounds the client table; beyond it, idle (full) buckets are
// evicted. A full bucket is indistinguishable from a brand-new one, so
// dropping it changes nothing for that client.
const maxBuckets = 4096

func newRateLimiter(rate float64, burst int) *rateLimiter {
	b := float64(burst)
	if b <= 0 {
		b = math.Ceil(rate)
	}
	if b < 1 {
		b = 1
	}
	return &rateLimiter{rate: rate, burst: b, buckets: make(map[string]*bucket)}
}

// allow consumes one token from key's bucket if available. When it is
// not, it returns how long the client should wait before the next
// attempt can succeed. A nil limiter admits everyone.
func (l *rateLimiter) allow(key string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[key]
	if !found {
		if len(l.buckets) >= maxBuckets {
			l.pruneLocked(now)
			// Pruning frees only idle buckets; a flood of distinct
			// spoofed client IDs leaves none. The cap is hard: make room
			// by evicting the longest-idle bucket instead, so the table
			// never grows past maxBuckets and an attacker costs a real
			// client at most its partially-refilled bucket.
			for len(l.buckets) >= maxBuckets {
				l.evictStalestLocked()
			}
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens = math.Min(l.burst, b.tokens+elapsed*l.rate)
			b.last = now
		}
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / l.rate
	return false, time.Duration(need * float64(time.Second))
}

// pruneLocked evicts buckets that have refilled completely — idle
// clients whose state carries no information.
func (l *rateLimiter) pruneLocked(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, k)
		}
	}
}

// evictStalestLocked drops the bucket untouched the longest — the
// closest to fully refilled, so the client it belonged to loses the
// least. Linear scan: it runs only when the table is at its hard cap.
func (l *rateLimiter) evictStalestLocked() {
	var (
		victim string
		oldest time.Time
		found  bool
	)
	for k, b := range l.buckets {
		if !found || b.last.Before(oldest) {
			victim, oldest, found = k, b.last, true
		}
	}
	if !found {
		return
	}
	delete(l.buckets, victim)
}
