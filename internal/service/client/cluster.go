package client

import (
	"context"
	"net/http"
	"sync"
	"time"

	"mrts/internal/service/api"
)

// Cluster is a failover client for a sharded mrts-serve cluster: it
// holds one Client per member and routes every call to a preferred
// member, rotating to the next on transport failures and gateway-class
// responses. Submission redirects (a non-owner answers 307 with the
// owner's URL) are followed transparently by net/http — request bodies
// built from bytes are replayable — so the cluster client only has to
// survive members that are down, not members that merely don't own the
// key.
//
// The preferred member is sticky: after a successful call the member
// that answered stays preferred, so a healthy cluster sees each client
// pinned to one entry point instead of spraying connections.
type Cluster struct {
	// Retry bounds the per-call failover loop. MaxAttempts counts total
	// tries across members; it is raised to the member count so every
	// member gets at least one try. BaseDelay/MaxDelay shape the sleep
	// inserted after a full rotation of failures (every member down or
	// overloaded), honouring server Retry-After hints like Client does.
	Retry RetryPolicy
	// HTTPClient is shared by every member client (default
	// http.DefaultClient).
	HTTPClient *http.Client
	// Hedge, when positive, makes Submit race members instead of trying
	// them strictly in sequence: if the preferred member has not answered
	// within Hedge, the submission is also sent to the next member, and
	// so on until one answers. All racing attempts share one
	// Idempotency-Key, so however many land — on however many entry
	// points, each redirecting to the same owner — at most one job is
	// created. This keeps tail latency bounded when the preferred member
	// sits on the wrong side of a partition: the client does not have to
	// burn a full timeout before failing over. Zero disables hedging
	// (strictly sequential failover, the default).
	Hedge time.Duration

	clients []*Client

	// jitter is the cluster's private backoff jitter stream (see
	// Client.jitter); rotations across members draw from one source.
	jitter *jitter

	mu  sync.Mutex
	cur int
}

// NewCluster creates a failover client over the member base URLs. A
// single address behaves exactly like New(addr) with retries.
func NewCluster(addrs []string) *Cluster {
	cc := &Cluster{jitter: newJitter()}
	for _, a := range addrs {
		c := New(a)
		cc.clients = append(cc.clients, c)
	}
	return cc
}

func (cc *Cluster) jitterSrc() *jitter {
	if cc.jitter != nil {
		return cc.jitter
	}
	return fallbackJitter
}

// SeedRetryJitter pins the cluster's backoff jitter to a fixed seed,
// making failover delays reproducible (see Client.SeedRetryJitter).
func (cc *Cluster) SeedRetryJitter(seed int64) {
	if cc.jitter == nil {
		cc.jitter = newJitter()
	}
	cc.jitter.reseed(seed)
}

// Addrs returns the configured member base URLs.
func (cc *Cluster) Addrs() []string {
	out := make([]string, len(cc.clients))
	for i, c := range cc.clients {
		out[i] = c.BaseURL
	}
	return out
}

// pick returns the preferred member index.
func (cc *Cluster) pick() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.cur
}

// pin records the member that last answered successfully.
func (cc *Cluster) pin(i int) {
	cc.mu.Lock()
	cc.cur = i
	cc.mu.Unlock()
}

// call runs f against members starting at the preferred one, advancing
// on retryable failures. After each full rotation of failures it sleeps
// (Retry-After hint or exponential backoff) before going around again,
// until the attempt budget or ctx runs out. Definitive answers — 2xx,
// 4xx — end the loop immediately.
func (cc *Cluster) call(ctx context.Context, f func(*Client) error) error {
	n := len(cc.clients)
	if n == 0 {
		return &StatusError{Code: http.StatusBadGateway, Message: "cluster client has no members", RetryAfter: -1}
	}
	attempts := cc.Retry.MaxAttempts
	if attempts < n {
		attempts = n
	}
	start := cc.pick()
	var lastErr error
	for i := 0; i < attempts; i++ {
		idx := (start + i) % n
		// Shallow copy: concurrent calls must not race on the shared
		// member clients when overriding the HTTP transport.
		c := *cc.clients[idx]
		c.HTTPClient = cc.HTTPClient
		lastErr = f(&c)
		if lastErr == nil {
			cc.pin(idx)
			return nil
		}
		if !retryable(lastErr) || ctx.Err() != nil {
			return lastErr
		}
		if (i+1)%n == 0 && i+1 < attempts {
			// Every member failed this round: back off before the next
			// rotation instead of hammering a struggling cluster.
			select {
			case <-ctx.Done():
				return lastErr
			case <-time.After(cc.Retry.nextDelay((i+1)/n, lastErr, cc.jitterSrc())):
			}
		}
	}
	return lastErr
}

// Submit enqueues a job on the owning member (following its redirect)
// and returns the job ID. One idempotency key spans every attempt and
// every member — hedged or sequential — so a retry that lands on a
// different entry point still dedupes onto the already-created job.
func (cc *Cluster) Submit(ctx context.Context, spec api.JobSpec) (string, error) {
	hdr := http.Header{"Idempotency-Key": []string{newIdemKey()}}
	if cc.Hedge > 0 && len(cc.clients) > 1 {
		if id, err := cc.hedgedSubmit(ctx, spec, hdr); err == nil || !retryable(err) || ctx.Err() != nil {
			return id, err
		}
		// Every raced attempt failed retryably (the whole cluster looked
		// down from here). Fall through to the sequential loop, which
		// backs off between rotations — still under the same key.
	}
	var resp api.SubmitResponse
	err := cc.call(ctx, func(c *Client) error {
		return c.doHdr(ctx, http.MethodPost, "/v1/jobs", hdr, spec, &resp)
	})
	if err != nil {
		return "", err
	}
	return resp.ID, nil
}

// hedgedSubmit races the submission across members: the preferred member
// goes first, and every Hedge interval without an answer (or immediately
// when an attempt fails retryably) the next member is tried too. The
// first success wins; its member becomes preferred. Because every
// attempt carries the caller's single Idempotency-Key, concurrent
// landings dedupe server-side onto one job — hedging trades duplicate
// requests for bounded tail latency, never for duplicate work.
func (cc *Cluster) hedgedSubmit(ctx context.Context, spec api.JobSpec, hdr http.Header) (string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing attempts
	n := len(cc.clients)
	type outcome struct {
		idx int
		id  string
		err error
	}
	results := make(chan outcome, n) // buffered: losers must not leak
	attempt := func(idx int) {
		c := *cc.clients[idx]
		c.HTTPClient = cc.HTTPClient
		var resp api.SubmitResponse
		err := c.doHdr(ctx, http.MethodPost, "/v1/jobs", hdr, spec, &resp)
		results <- outcome{idx: idx, id: resp.ID, err: err}
	}
	start := cc.pick()
	launched := 1
	go attempt(start % n)
	t := time.NewTimer(cc.Hedge)
	defer t.Stop()
	var lastErr error
	for done := 0; done < launched; {
		select {
		case <-ctx.Done():
			return "", context.Cause(ctx)
		case <-t.C:
			if launched < n {
				go attempt((start + launched) % n)
				launched++
				t.Reset(cc.Hedge)
			}
		case out := <-results:
			done++
			if out.err == nil {
				cc.pin(out.idx % n)
				return out.id, nil
			}
			lastErr = out.err
			if !retryable(out.err) {
				return "", out.err
			}
			if launched < n {
				// A failed attempt frees its slot: hedge immediately
				// rather than waiting out the interval.
				go attempt((start + launched) % n)
				launched++
			}
		}
	}
	return "", lastErr
}

// Job polls one job; any member can answer (lookups fan out
// server-side), so a job owned by a dead member is still reachable.
func (cc *Cluster) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	err := cc.call(ctx, func(c *Client) error {
		return c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists the merged job table of the cluster.
func (cc *Cluster) Jobs(ctx context.Context) ([]api.JobStatus, error) {
	var out []api.JobStatus
	err := cc.call(ctx, func(c *Client) error {
		return c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel cancels a job wherever it lives.
func (cc *Cluster) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	err := cc.call(ctx, func(c *Client) error {
		return c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st)
	})
	if err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls the job every interval until it is terminal or ctx
// expires, failing over between members as needed — the poll loop rides
// straight through a member death once a survivor adopts the job.
func (cc *Cluster) Wait(ctx context.Context, id string, interval time.Duration) (*api.JobStatus, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var last *api.JobStatus
	for {
		st, err := cc.Job(ctx, id)
		if err == nil {
			last = st
			if st.State.Terminal() {
				return st, nil
			}
		} else if !retryable(err) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return last, context.Cause(ctx)
		case <-t.C:
		}
	}
}

// Run submits a job and waits for its terminal state.
func (cc *Cluster) Run(ctx context.Context, spec api.JobSpec, poll time.Duration) (*api.JobStatus, error) {
	id, err := cc.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return cc.Wait(ctx, id, poll)
}

// Sweep streams a point batch from the first member that accepts it. A
// stream that breaks mid-way is not resumed (events are not replayable
// across members); the caller re-runs the sweep — every completed point
// is already in the serving member's report memo.
func (cc *Cluster) Sweep(ctx context.Context, req api.SweepRequest, onEvent func(api.SweepEvent)) (*api.SweepEvent, error) {
	var final *api.SweepEvent
	err := cc.call(ctx, func(c *Client) error {
		ev, serr := c.Sweep(ctx, req, onEvent)
		if serr != nil {
			return serr
		}
		final = ev
		return nil
	})
	return final, err
}

// Healthz succeeds when any member is alive.
func (cc *Cluster) Healthz(ctx context.Context) error {
	return cc.call(ctx, func(c *Client) error { return c.Healthz(ctx) })
}

// Metrics fetches the /metrics page of the first answering member.
func (cc *Cluster) Metrics(ctx context.Context) (string, error) {
	var text string
	err := cc.call(ctx, func(c *Client) error {
		t, merr := c.Metrics(ctx)
		if merr != nil {
			return merr
		}
		text = t
		return nil
	})
	return text, err
}
