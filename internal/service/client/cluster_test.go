package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mrts/internal/service/api"
)

// TestClusterFailsOverToLiveMember: a dead first member is skipped and
// the live member answers; the live member then stays preferred.
func TestClusterFailsOverToLiveMember(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var liveCalls atomic.Int64
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		liveCalls.Add(1)
		w.Write([]byte(`[]`))
	}))
	defer live.Close()

	cc := NewCluster([]string{deadURL, live.URL})
	cc.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if _, err := cc.Jobs(context.Background()); err != nil {
		t.Fatalf("Jobs with one dead member = %v, want failover success", err)
	}
	if liveCalls.Load() != 1 {
		t.Fatalf("live member saw %d calls, want 1", liveCalls.Load())
	}
	// The answering member is pinned: the second call goes straight to it.
	if _, err := cc.Jobs(context.Background()); err != nil {
		t.Fatalf("second Jobs = %v", err)
	}
	if liveCalls.Load() != 2 {
		t.Errorf("live member saw %d calls after pinning, want 2", liveCalls.Load())
	}
}

// TestClusterAllMembersDown: every member down yields the last error,
// bounded by the attempt budget.
func TestClusterAllMembersDown(t *testing.T) {
	mk := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		url := ts.URL
		ts.Close()
		return url
	}
	cc := NewCluster([]string{mk(), mk()})
	cc.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	start := time.Now()
	if err := cc.Healthz(context.Background()); err == nil {
		t.Fatal("dead cluster reported healthy")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("bounded failover took %v", d)
	}
}

// TestClusterFollowsSubmitRedirect: a non-owner member answers 307 with
// the owner's URL; the redirect is followed with the body and the
// idempotency key intact, the owner accepts.
func TestClusterFollowsSubmitRedirect(t *testing.T) {
	var ownerKey atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var spec api.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || spec.Type != api.JobSim {
			w.WriteHeader(http.StatusBadRequest)
			w.Write([]byte(`{"error":"body lost in redirect"}`))
			return
		}
		ownerKey.Store(r.Header.Get("Idempotency-Key"))
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(api.SubmitResponse{ID: "j42", State: api.StateQueued})
	}))
	defer owner.Close()

	nonOwner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", owner.URL+r.URL.Path)
		w.WriteHeader(http.StatusTemporaryRedirect)
	}))
	defer nonOwner.Close()

	cc := NewCluster([]string{nonOwner.URL})
	id, err := cc.Submit(context.Background(), api.JobSpec{Type: api.JobSim, PRC: 1, CG: 1, Policy: "mrts"})
	if err != nil {
		t.Fatalf("Submit through redirect = %v", err)
	}
	if id != "j42" {
		t.Errorf("job ID = %q, want j42", id)
	}
	key, _ := ownerKey.Load().(string)
	if key == "" {
		t.Error("Idempotency-Key dropped across the redirect")
	}
}

// TestSweepAndMetricsStatusErrors: a definitive non-2xx answer to a
// sweep or a metrics fetch is a *StatusError, sent once and never retried.
func TestSweepAndMetricsStatusErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"sweep needs at least one point"}`))
	}))
	defer ts.Close()

	cc := NewCluster([]string{ts.URL})
	cc.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"sweep", func() error {
			_, err := cc.Sweep(context.Background(), api.SweepRequest{}, nil)
			return err
		}},
		{"metrics", func() error {
			_, err := cc.Metrics(context.Background())
			return err
		}},
	} {
		calls.Store(0)
		err := tc.call()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want a *StatusError with HTTP 400", tc.name, err)
		}
		if got := calls.Load(); got != 1 {
			t.Errorf("%s: definitive 400 sent %d times, want 1", tc.name, got)
		}
	}
}

// TestSweepBrokenStreamNotRerun: a stream that breaks after delivering an
// event is returned to the caller; re-running it would hand onEvent the
// same events again.
func TestSweepBrokenStreamNotRerun(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"index":0,"point":{"prc":1,"cg":1,"policy":"mrts"}}` + "\n"))
		// No summary event: the stream ends mid-sweep.
	}))
	defer ts.Close()

	cc := NewCluster([]string{ts.URL})
	cc.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	var events int
	_, err := cc.Sweep(context.Background(), api.SweepRequest{}, func(api.SweepEvent) { events++ })
	if err == nil {
		t.Fatal("broken stream reported success")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("broken stream run %d times, want 1", got)
	}
	if events != 1 {
		t.Errorf("onEvent called %d times, want 1", events)
	}
}
