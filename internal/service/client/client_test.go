package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mrts/internal/service/api"
)

// flaky returns a handler that answers `failures` requests with the given
// status before succeeding, and the total request count. A successful
// job poll reports the job done; every other success is an empty list.
func flaky(failures int, code int) (http.Handler, *atomic.Int64) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(failures) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(code)
			w.Write([]byte(`{"error":"try again"}`))
			return
		}
		if strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			w.Write([]byte(`{"id":"j1","state":"done"}`))
			return
		}
		w.Write([]byte(`[]`))
	})
	return h, &calls
}

func retryClient(url string, attempts int) *Client {
	c := New(url)
	c.Retry = RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	return c
}

func TestRetryRecoversFromGatewayErrors(t *testing.T) {
	h, calls := flaky(2, http.StatusServiceUnavailable)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := retryClient(ts.URL, 3)
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("Jobs with retries = %v, want success on third attempt", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3", got)
	}
}

// A one-address Wait keeps polling through a 503 window longer than one
// call's retry budget and returns the terminal status.
func TestWaitRidesThroughTransientWindow(t *testing.T) {
	h, calls := flaky(5, http.StatusServiceUnavailable)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := retryClient(ts.URL, 2) // each poll gives up after 2 attempts
	st, err := c.Wait(context.Background(), "j1", time.Millisecond)
	if err != nil {
		t.Fatalf("Wait through a 503 window = %v, want the terminal status", err)
	}
	if st.State != api.StateDone {
		t.Errorf("state = %s, want done", st.State)
	}
	if got := calls.Load(); got != 6 {
		t.Errorf("requests = %d, want 6 (five 503s, then done)", got)
	}
}

func TestRetryBounded(t *testing.T) {
	h, calls := flaky(1000, http.StatusBadGateway)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := retryClient(ts.URL, 3)
	_, err := c.Jobs(context.Background())
	if err == nil {
		t.Fatal("permanently failing daemon reported success")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("attempts = %d, want exactly MaxAttempts", got)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadGateway {
		t.Errorf("err = %v, want StatusError with the last status", err)
	}
	if !strings.Contains(err.Error(), "HTTP 502") || !strings.Contains(err.Error(), "try again") {
		t.Errorf("error text lost context: %v", err)
	}
}

func TestNoRetryOnClientError(t *testing.T) {
	h, calls := flaky(1000, http.StatusBadRequest)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := retryClient(ts.URL, 5)
	_, err := c.Submit(context.Background(), api.JobSpec{})
	if err == nil {
		t.Fatal("400 reported as success")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("definitive 4xx retried: %d attempts", got)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Temporary() {
		t.Errorf("4xx classified as temporary: %v", err)
	}
}

func TestRetryConnectionError(t *testing.T) {
	// A server that is already closed: every attempt is a transport error.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()

	c := retryClient(url, 2)
	start := time.Now()
	if err := c.Healthz(context.Background()); err == nil {
		t.Fatal("dead daemon reported healthy")
	}
	// Two attempts with a ~1ms backoff in between: well under a second.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("bounded retry took %v", d)
	}
}

func TestRetryHonoursContext(t *testing.T) {
	h, calls := flaky(1000, http.StatusServiceUnavailable)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL)
	// Long backoff: the context must cut the sleep short.
	c.Retry = RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.Jobs(ctx); err == nil {
		t.Fatal("cancelled retry loop reported success")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("context-cancelled retry took %v", d)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("attempts after immediate cancel = %d, want 1", got)
	}
}

func TestZeroPolicySingleAttempt(t *testing.T) {
	h, calls := flaky(1000, http.StatusServiceUnavailable)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL) // zero RetryPolicy
	if _, err := c.Jobs(context.Background()); err == nil {
		t.Fatal("failure swallowed")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("zero policy made %d attempts, want 1", got)
	}
}

// A Retry-After hint from the server is preferred over the computed
// exponential backoff: with a huge BaseDelay and a zero hint, the retry
// happens immediately.
func TestRetryAfterPreferredOverBackoff(t *testing.T) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"rate limited"}`))
			return
		}
		w.Write([]byte(`[]`))
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("Jobs = %v, want success after rate-limited retry", err)
	}
	if calls.Load() != 2 {
		t.Errorf("attempts = %d, want 2", calls.Load())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("Retry-After 0 not honoured: retry took %v (backoff would be ~1h)", d)
	}
}

// A huge Retry-After hint is capped at the policy's MaxDelay.
func TestRetryAfterCapped(t *testing.T) {
	h, calls := flaky(1, http.StatusServiceUnavailable)
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "3600")
		h.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(wrapped)
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond}
	start := time.Now()
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("Jobs = %v, want success on second attempt", err)
	}
	if calls.Load() != 2 {
		t.Errorf("attempts = %d, want 2", calls.Load())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("hour-long Retry-After not capped at MaxDelay: took %v", d)
	}
}

func TestTooManyRequestsIsTemporary(t *testing.T) {
	se := &StatusError{Code: http.StatusTooManyRequests}
	if !se.Temporary() {
		t.Error("429 not classified as temporary")
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", -1},
		{"garbage", -1},
		{"-3", -1},
		{"0", 0},
		{"2", 2 * time.Second},
		{"0.5", 500 * time.Millisecond},
		{" 1 ", time.Second},
		// An HTTP-date in the past means "retry now", not "no hint".
		{"Tue, 29 Oct 2024 16:56:32 GMT", 0},
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParseRetryAfterHTTPDate pins the RFC 7231 HTTP-date form against a
// fixed clock: the hint is the remaining wait until the given instant.
func TestParseRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2024, 10, 29, 16, 56, 30, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"Tue, 29 Oct 2024 16:56:32 GMT", 2 * time.Second},   // IMF-fixdate
		{"Tuesday, 29-Oct-24 16:56:32 GMT", 2 * time.Second}, // RFC 850
		{"Tue Oct 29 16:56:32 2024", 2 * time.Second},        // asctime
		{"Tue, 29 Oct 2024 16:56:30 GMT", 0},                 // exactly now
		{"Tue, 29 Oct 2024 16:55:00 GMT", 0},                 // past: retry now
		{"Tue, 29 Oct 2024 17:56:30 GMT", time.Hour},         // far future
		{"Tue, 32 Oct 2024 16:56:32 GMT", -1},                // invalid date
		{"29 Oct 2024", -1},                                  // not an HTTP-date layout
	}
	for _, tc := range cases {
		if got := parseRetryAfterAt(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfterAt(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestHTTPDateRetryAfterHonoured runs the full loop: a 503 whose
// Retry-After is an HTTP-date a moment away is slept through, and the
// retry succeeds.
func TestHTTPDateRetryAfterHonoured(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", time.Now().Add(20*time.Millisecond).UTC().Format(http.TimeFormat))
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"draining"}`))
			return
		}
		w.Write([]byte(`[]`))
	}))
	defer ts.Close()

	c := New(ts.URL)
	// Backoff would be an hour; the date hint (≤20ms, capped at MaxDelay)
	// must win.
	c.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: time.Hour, MaxDelay: 100 * time.Millisecond}
	start := time.Now()
	if _, err := c.Jobs(context.Background()); err != nil {
		t.Fatalf("Jobs = %v, want success after date-hinted retry", err)
	}
	if calls.Load() != 2 {
		t.Errorf("attempts = %d, want 2", calls.Load())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("HTTP-date hint not honoured: took %v", d)
	}
}

// TestCancelDuringRetrySleep pins that a context cancelled while the
// client is sleeping between attempts aborts the sleep promptly instead
// of serving out the full backoff.
func TestCancelDuringRetrySleep(t *testing.T) {
	h, calls := flaky(1000, http.StatusServiceUnavailable)
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := New(ts.URL)
	c.Retry = RetryPolicy{MaxAttempts: 10, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Let the first attempt fail and the hour-long sleep begin.
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := c.Jobs(ctx)
	if err == nil {
		t.Fatal("cancelled retry loop reported success")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancel during retry sleep took %v, want prompt return", d)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("attempts = %d, want 1 (cancel hit during the first sleep)", got)
	}
}

func TestStatusErrorText(t *testing.T) {
	with := &StatusError{Method: "GET", Path: "/v1/jobs", Code: 503, Message: "queue full"}
	if got := with.Error(); got != "GET /v1/jobs: queue full (HTTP 503)" {
		t.Errorf("Error() = %q", got)
	}
	without := &StatusError{Method: "GET", Path: "/healthz", Code: 500}
	if got := without.Error(); got != "GET /healthz: HTTP 500" {
		t.Errorf("Error() = %q", got)
	}
}

// TestErrorBodySurfaced pins the error-message fallback: a daemon (or the
// proxy in front of it) that answers with a plain-text body instead of the
// api.ErrorResponse envelope must still have its explanation surface in
// the client error, not a bare HTTP status.
func TestErrorBodySurfaced(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"json envelope", `{"error":"fig \"nope\" unknown"}`, `fig "nope" unknown`},
		{"plain text", "service restarting, come back later\n", "service restarting, come back later"},
		{"html-ish proxy page", "502 Bad Gateway: upstream unreachable", "upstream unreachable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusBadRequest)
				w.Write([]byte(tc.body))
			}))
			defer ts.Close()

			_, err := New(ts.URL).Jobs(context.Background())
			if err == nil {
				t.Fatal("400 reported as success")
			}
			var se *StatusError
			if !errors.As(err, &se) {
				t.Fatalf("err = %T, want *StatusError", err)
			}
			if !strings.Contains(se.Message, tc.want) {
				t.Errorf("Message = %q, want it to contain %q", se.Message, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Error() = %q lost the server's explanation", err)
			}
		})
	}
}

// An empty error body keeps the bare-status rendering.
func TestEmptyErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Job(context.Background(), "missing")
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StatusError", err)
	}
	if se.Message != "" {
		t.Errorf("Message = %q, want empty for an empty body", se.Message)
	}
	if !strings.Contains(err.Error(), "HTTP 404") {
		t.Errorf("Error() = %q, want bare status", err)
	}
}

// The backoff jitter is a per-client stream: seeding it pins the delay
// schedule (reproducible chaos tests), different seeds diverge, and a
// zero-literal Client without New still draws from its own lazily seeded
// stream.
func TestRetryJitterSeededReproducible(t *testing.T) {
	r := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	seq := func(seed int64) []time.Duration {
		c := New("http://example.invalid")
		c.SeedRetryJitter(seed)
		ds := make([]time.Duration, 0, 8)
		for a := 1; a <= 8; a++ {
			ds = append(ds, r.delay(a, c.jitterSrc()))
		}
		return ds
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at delay %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, d := seq(1), seq(2)
	same := true
	for i := range c {
		if c[i] != d[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical delay schedule")
	}
}

func TestRetryDelayBounds(t *testing.T) {
	r := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	var zero Client // no New: must fall back, not panic
	for attempt := 1; attempt <= 12; attempt++ {
		full := r.BaseDelay << uint(attempt-1)
		if full > r.MaxDelay || full <= 0 {
			full = r.MaxDelay
		}
		got := r.delay(attempt, zero.jitterSrc())
		if got < full/2 || got > full {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, got, full/2, full)
		}
	}
}

// Cluster backoff shares the same seedable stream.
func TestClusterSeedRetryJitter(t *testing.T) {
	cc := NewCluster([]string{"http://a.invalid", "http://b.invalid"})
	cc.SeedRetryJitter(7)
	r := RetryPolicy{BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	first := r.delay(2, cc.jitterSrc())
	cc.SeedRetryJitter(7)
	if again := r.delay(2, cc.jitterSrc()); again != first {
		t.Errorf("reseeded cluster jitter diverged: %v vs %v", first, again)
	}
}
