// Package client is the Go client of the mrts-serve HTTP API, used by
// cmd/mrts-submit and by programs that want to run sweeps against a
// shared daemon, or a cluster of them, instead of simulating in-process.
package client

import (
	"bufio"
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mrts/internal/service/api"
)

// RetryPolicy bounds the client's retry loop for transient failures:
// connection errors and gateway-class responses (502/503/504) are retried
// with capped exponential backoff plus jitter; definitive responses (4xx,
// or a 5xx the daemon itself produced) are returned immediately. The zero
// value performs no retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values below 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 100ms);
	// it doubles per attempt up to MaxDelay (default 2s). The actual
	// sleep is drawn uniformly from [delay/2, delay] (jitter), and is
	// cut short when the context expires.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (r RetryPolicy) maxDelay() time.Duration {
	if r.MaxDelay > 0 {
		return r.MaxDelay
	}
	return 2 * time.Second
}

// delay returns the jittered backoff before attempt+1 (attempt is 1-based),
// drawing the jitter from j.
func (r RetryPolicy) delay(attempt int, j *jitter) time.Duration {
	base := r.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := r.maxDelay()
	d := base << uint(attempt-1)
	if d > maxd || d <= 0 {
		d = maxd
	}
	return d/2 + time.Duration(j.int63n(int64(d/2)+1))
}

// nextDelay picks the sleep before the next attempt: when the server
// sent a Retry-After hint (429 rate limit, 503 queue-full/draining) the
// hint wins over the computed exponential backoff — the server knows its
// own load — but is capped at MaxDelay so a large hint cannot stall the
// client beyond its own patience.
func (r RetryPolicy) nextDelay(attempt int, lastErr error, j *jitter) time.Duration {
	var se *StatusError
	if errors.As(lastErr, &se) && se.RetryAfter >= 0 {
		if maxd := r.maxDelay(); se.RetryAfter > maxd {
			return maxd
		}
		return se.RetryAfter
	}
	return r.delay(attempt, j)
}

// jitter is a concurrency-safe random stream for backoff jitter, seeded
// per client from the OS entropy pool. The global math/rand source it
// replaces handed every client in the process the same backoff schedule
// (and one contended lock): clients retrying against the same recovering
// daemon would sleep in lockstep and arrive together. The seed is drawn
// lazily on first use so idle clients cost no entropy, and the zero value
// is ready to use.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func (j *jitter) int63n(n int64) int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.rng == nil {
		j.rng = rand.New(rand.NewSource(cryptoSeed()))
	}
	return j.rng.Int63n(n)
}

// reseed pins the stream to a fixed seed, making delays reproducible.
func (j *jitter) reseed(seed int64) {
	j.mu.Lock()
	j.rng = rand.New(rand.NewSource(seed))
	j.mu.Unlock()
}

// cryptoSeed draws a 63-bit seed from crypto/rand. Entropy failure is
// not worth crashing a retry loop over: the wall clock still separates
// clients well enough for backoff spreading.
func cryptoSeed() int64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return time.Now().UnixNano()
	}
	return int64(binary.LittleEndian.Uint64(b[:]) >> 1)
}

// StatusError is the error returned for every non-2xx response, so
// callers (and the retry loop) can inspect the status code.
type StatusError struct {
	Method  string
	Path    string
	Code    int
	Message string
	// RetryAfter is the server's Retry-After hint; -1 when the response
	// carried none (a zero hint — "retry immediately" — is meaningful).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("%s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Code)
	}
	return fmt.Sprintf("%s %s: HTTP %d", e.Method, e.Path, e.Code)
}

// Temporary reports whether the response is worth retrying: gateway
// class (the request may never have reached a healthy daemon) or an
// overload rejection (429 rate limit, 503 queue-full/draining) that a
// later attempt may clear.
func (e *StatusError) Temporary() bool {
	return e.Code == http.StatusBadGateway ||
		e.Code == http.StatusServiceUnavailable ||
		e.Code == http.StatusGatewayTimeout ||
		e.Code == http.StatusTooManyRequests
}

// Client talks to one mrts-serve daemon or to a sharded cluster of them.
// It holds the member base URLs and routes every call to a preferred
// member, rotating to the next on transport failures and gateway-class
// responses; a single daemon is the one-member case, where the rotation
// is a plain retry loop. Submission redirects (a non-owner answers 307
// with the owner's URL) are followed transparently by net/http — request
// bodies built from bytes are replayable — so the client only has to
// survive members that are down, not members that merely don't own the
// key.
//
// The preferred member is sticky: after a successful call the member
// that answered stays preferred, so a healthy cluster sees each client
// pinned to one entry point instead of spraying connections.
type Client struct {
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry bounds the per-call attempt loop. MaxAttempts counts total
	// tries across members; it is raised to the member count so every
	// member gets at least one try. BaseDelay/MaxDelay shape the sleep
	// inserted after a full rotation of failures (every member down or
	// overloaded), honouring server Retry-After hints. The zero value
	// tries each member once.
	Retry RetryPolicy
	// Hedge, when positive, makes Submit race members instead of trying
	// them strictly in sequence: if the preferred member has not answered
	// within Hedge, the submission is also sent to the next member, and
	// so on until one answers. All racing attempts share one
	// Idempotency-Key, so however many land — on however many entry
	// points, each redirecting to the same owner — at most one job is
	// created. This keeps tail latency bounded when the preferred member
	// sits on the wrong side of a partition: the client does not have to
	// burn a full timeout before failing over. Zero disables hedging
	// (strictly sequential failover, the default); it has no effect on a
	// one-member client.
	Hedge time.Duration

	addrs []string
	// jitter is the client's private backoff jitter stream; rotations
	// across members draw from one source.
	jitter jitter

	mu  sync.Mutex
	cur int
}

// New creates a client for the daemon at baseURL, e.g.
// "http://localhost:8341": the one-member NewCluster.
func New(baseURL string) *Client { return NewCluster([]string{baseURL}) }

// NewCluster creates a failover client over the member base URLs.
func NewCluster(addrs []string) *Client {
	c := &Client{}
	for _, a := range addrs {
		c.addrs = append(c.addrs, strings.TrimRight(a, "/"))
	}
	return c
}

// Addrs returns the configured member base URLs.
func (c *Client) Addrs() []string { return append([]string(nil), c.addrs...) }

func (c *Client) jitterSrc() *jitter { return &c.jitter }

// SeedRetryJitter pins the client's backoff jitter to a fixed seed, making
// retry delays reproducible. Intended for tests and simulations; production
// clients keep the default entropy-seeded stream.
func (c *Client) SeedRetryJitter(seed int64) { c.jitter.reseed(seed) }

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// pick returns the preferred member index.
func (c *Client) pick() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// pin records the member that last answered successfully.
func (c *Client) pin(i int) {
	c.mu.Lock()
	c.cur = i
	c.mu.Unlock()
}

// brokenStream marks a sweep stream that failed after delivering events.
// Events are not replayable, so the call loop returns it to the caller
// instead of re-running the sweep.
type brokenStream struct{ error }

func (e brokenStream) Unwrap() error { return e.error }

// retryable reports whether the error is transient: a transport-level
// failure (connection refused/reset, daemon restarting) or a
// gateway-class response. Definitive daemon answers and broken streams
// are not retried.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Temporary()
	}
	if errors.As(err, new(brokenStream)) {
		return false
	}
	// Everything else from Do is transport-level: the request may not
	// have produced a definitive answer.
	return true
}

// call runs one attempt body against members starting at the preferred
// one, advancing on retryable failures. After each full rotation of
// failures it sleeps (Retry-After hint or exponential backoff) before
// going around again, until the attempt budget or ctx runs out; with one
// member that is a sleep between every two attempts. Definitive answers
// — 2xx, 4xx — end the loop immediately; both the sleep and the request
// honour ctx cancellation.
func (c *Client) call(ctx context.Context, attempt func(base string) error) error {
	n := len(c.addrs)
	if n == 0 {
		return &StatusError{Code: http.StatusBadGateway, Message: "client has no members", RetryAfter: -1}
	}
	attempts := c.Retry.MaxAttempts
	if attempts < n {
		attempts = n
	}
	start := c.pick()
	var lastErr error
	for i := 0; i < attempts; i++ {
		idx := (start + i) % n
		lastErr = attempt(c.addrs[idx])
		if lastErr == nil {
			c.pin(idx)
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
			case <-time.After(c.Retry.nextDelay((i+1)/n, lastErr, c.jitterSrc())):
			}
		}
	}
	return lastErr
}

// do performs one JSON call under the attempt loop. The headers are fixed
// for every attempt: retried POSTs must carry the same Idempotency-Key.
func (c *Client) do(ctx context.Context, method, path string, hdr http.Header, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = b
	}
	return c.call(ctx, func(base string) error {
		return c.doOnce(ctx, base, method, path, hdr, payload, out)
	})
}

// doOnce is one JSON round trip against the member at base.
func (c *Client) doOnce(ctx context.Context, base, method, path string, hdr http.Header, payload []byte, out any) error {
	resp, err := c.send(ctx, base, method, path, hdr, payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// send performs one request against the member at base and returns the
// response of a 2xx answer, whose body the caller closes. Every other
// answer comes back as a *StatusError.
func (c *Client) send(ctx context.Context, base, method, path string, hdr http.Header, payload []byte) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, &StatusError{
			Method:     method,
			Path:       path,
			Code:       resp.StatusCode,
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
			Message:    errorMessage(resp.Body),
		}
	}
	return resp, nil
}

// parseRetryAfter parses a Retry-After header in either RFC 7231 form:
// delta-seconds (integer or fractional, the daemon's own format) or an
// HTTP-date (what proxies and load balancers in front of a cluster
// emit), which is converted to the remaining wait from now. A date in
// the past means "retry immediately" (0), not "no hint". Absent or
// unparsable values yield -1, "no hint".
func parseRetryAfter(v string) time.Duration {
	return parseRetryAfterAt(v, time.Now())
}

// parseRetryAfterAt is parseRetryAfter against an explicit clock, so
// the HTTP-date arithmetic is testable without real sleeps.
func parseRetryAfterAt(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return -1
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs < 0 {
			return -1
		}
		return time.Duration(secs * float64(time.Second))
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
		return 0
	}
	return -1
}

// errorMessage extracts the human-readable message of a non-2xx body:
// the api.ErrorResponse JSON the daemon sends, or — when a proxy or a
// non-JSON handler produced the response — the trimmed raw body, so the
// server's explanation always surfaces instead of a bare HTTP status.
func errorMessage(body io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(body, 8*1024))
	if err != nil {
		return ""
	}
	var e api.ErrorResponse
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// Submit enqueues a job on the owning member (following its redirect)
// and returns its ID. Submission is made safe to retry by a per-call
// idempotency key: POST /v1/jobs is not naturally idempotent, and the
// attempt loop re-sends it whenever the transport failed — including
// after the daemon accepted the job but the response was lost. The key,
// constant across every attempt and every member — hedged or sequential —
// lets the owner map the replay onto the already-created job instead of
// duplicating it.
func (c *Client) Submit(ctx context.Context, spec api.JobSpec) (string, error) {
	hdr := http.Header{"Idempotency-Key": []string{newIdemKey()}}
	payload, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	if c.Hedge > 0 && len(c.addrs) > 1 {
		if id, err := c.hedgedSubmit(ctx, payload, hdr); err == nil || !retryable(err) || ctx.Err() != nil {
			return id, err
		}
		// Every raced attempt failed retryably (the whole cluster looked
		// down from here). Fall through to the sequential loop, which
		// backs off between rotations — still under the same key.
	}
	var resp api.SubmitResponse
	err = c.call(ctx, func(base string) error {
		return c.doOnce(ctx, base, http.MethodPost, "/v1/jobs", hdr, payload, &resp)
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
func (c *Client) hedgedSubmit(ctx context.Context, payload []byte, hdr http.Header) (string, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing attempts
	n := len(c.addrs)
	type outcome struct {
		idx int
		id  string
		err error
	}
	results := make(chan outcome, n) // buffered: losers must not leak
	attempt := func(idx int) {
		var resp api.SubmitResponse
		err := c.doOnce(ctx, c.addrs[idx], http.MethodPost, "/v1/jobs", hdr, payload, &resp)
		results <- outcome{idx: idx, id: resp.ID, err: err}
	}
	start := c.pick()
	launched := 1
	go attempt(start % n)
	t := time.NewTimer(c.Hedge)
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
				t.Reset(c.Hedge)
			}
		case out := <-results:
			done++
			if out.err == nil {
				c.pin(out.idx)
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

// newIdemKey draws a fresh 128-bit idempotency key.
func newIdemKey() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic("client: idempotency key entropy: " + err.Error())
	}
	return "idem-" + hex.EncodeToString(b[:])
}

// Job polls one job; any cluster member can answer (lookups fan out
// server-side), so a job owned by a dead member is still reachable.
func (c *Client) Job(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every retained job (a cluster member merges its peers').
func (c *Client) Jobs(ctx context.Context) ([]api.JobStatus, error) {
	var out []api.JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel cancels a job wherever it lives and returns its (possibly
// already terminal) status.
func (c *Client) Cancel(ctx context.Context, id string) (*api.JobStatus, error) {
	var st api.JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Wait polls the job every interval until it is terminal or ctx expires.
// Retryable errors do not end the wait: the poll loop rides through a
// daemon restart, an overload window or a member death (once a survivor
// adopts the job). A definitive error does.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration) (*api.JobStatus, error) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var last *api.JobStatus
	for {
		st, err := c.Job(ctx, id)
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
func (c *Client) Run(ctx context.Context, spec api.JobSpec, poll time.Duration) (*api.JobStatus, error) {
	id, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, id, poll)
}

// Sweep streams a point batch from the first member that accepts it.
// onEvent (may be nil) is called for every progress event in arrival
// order; the final summary event is returned. A stream that breaks after
// its first event is returned to the caller, not resumed or re-run
// (events are not replayable); re-running the sweep is cheap, because
// every completed point is already in the serving member's report memo.
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest, onEvent func(api.SweepEvent)) (*api.SweepEvent, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var final *api.SweepEvent
	err = c.call(ctx, func(base string) error {
		resp, err := c.send(ctx, base, http.MethodPost, "/v1/sweep", nil, payload)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		final, err = readSweep(resp.Body, onEvent)
		return err
	})
	return final, err
}

// readSweep reads an ndjson sweep stream up to its summary event. An
// error after the first delivered event is a brokenStream.
func readSweep(body io.Reader, onEvent func(api.SweepEvent)) (*api.SweepEvent, error) {
	delivered := false
	fail := func(err error) (*api.SweepEvent, error) {
		if delivered {
			err = brokenStream{err}
		}
		return nil, err
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev api.SweepEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fail(fmt.Errorf("sweep: bad event: %w", err))
		}
		if ev.Done {
			return &ev, nil
		}
		if onEvent != nil {
			onEvent(ev)
		}
		delivered = true
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	return fail(errors.New("sweep: stream ended without summary event"))
}

// Healthz checks liveness; on a cluster it succeeds when any member is
// alive.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil, nil)
}

// Metrics fetches the plain-text metrics page of the first answering
// member.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	var text string
	err := c.call(ctx, func(base string) error {
		resp, err := c.send(ctx, base, http.MethodGet, "/metrics", nil, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		text = string(b)
		return err
	})
	return text, err
}
