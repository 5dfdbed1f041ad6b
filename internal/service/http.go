package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"mrts/internal/exp"
	"mrts/internal/service/api"
)

// Handler returns the HTTP API:
//
//	POST   /v1/jobs             submit a job            -> 202 SubmitResponse
//	GET    /v1/jobs             list jobs               -> 200 []JobStatus
//	GET    /v1/jobs/{id}        poll a job              -> 200 JobStatus
//	POST   /v1/jobs/{id}/cancel cancel a job            -> 200 JobStatus
//	DELETE /v1/jobs/{id}        cancel a job            -> 200 JobStatus
//	POST   /v1/sweep            evaluate a point batch, streaming one
//	                            ndjson SweepEvent per completed point
//	GET    /healthz             liveness                -> 200 "ok"
//	GET    /readyz              readiness: 200 while admitting,
//	                            503 "draining" during drain/shutdown,
//	                            503 "journal error: ..." once the journal
//	                            can no longer persist submissions
//	GET    /metrics             plain-text metrics
//
// Overload responses carry a Retry-After hint (seconds): 503 when the
// queue is full or the server is draining, 429 when the per-client rate
// limit (Options.RatePerSec) rejects a submission. The service client
// honours the hint in its backoff loop.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.HandleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.HandleGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.HandleCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.HandleCancel)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.Header().Set("Retry-After", "5")
			w.WriteHeader(http.StatusServiceUnavailable)
			// A node whose journal can no longer persist submissions must
			// leave the load balancer's rotation even though it is up: an
			// accepted job could be lost by the next crash.
			if jerr := s.JournalErr(); jerr != nil {
				fmt.Fprintf(w, "journal error: %v\n", jerr)
				return
			}
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.metrics.WriteText(w)
	})
	return mux
}

// WriteJSON writes v as the indented JSON body of a code response.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError writes a code response whose body is an api.ErrorResponse.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, api.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// AdmitClient applies the per-client rate limit (when configured) and
// writes the 429 + Retry-After response itself on rejection. Clients are
// keyed by the X-Client-ID header when present, else by remote IP.
func (s *Server) AdmitClient(w http.ResponseWriter, r *http.Request) bool {
	key := r.Header.Get("X-Client-ID")
	if key == "" {
		key = r.RemoteAddr
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			key = host
		}
	}
	ok, wait := s.limiter.allow(key, time.Now())
	if ok {
		return true
	}
	s.rateLimited.Inc()
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	WriteError(w, http.StatusTooManyRequests, "rate limited, retry in %ds", secs)
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.AdmitClient(w, r) {
		return
	}
	var spec api.JobSpec
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	job, deduped, err := s.SubmitIdem(r.Header.Get("Idempotency-Key"), spec)
	s.WriteSubmit(w, job, deduped, err)
}

// WriteSubmit writes the outcome of a submission: 503 with a Retry-After
// hint when the queue is full (1 s) or the server is draining (5 s), 400
// for any other error, else 202 with the job's ID and state.
func (s *Server) WriteSubmit(w http.ResponseWriter, job *Job, deduped bool, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A deduped retry gets the original job back — possibly already past
	// queued — so the client's poll loop lands on the same result either
	// way.
	st := s.Status(job, false)
	if deduped {
		w.Header().Set("Idempotent-Replayed", "true")
	}
	WriteJSON(w, http.StatusAccepted, api.SubmitResponse{ID: job.ID, State: st.State})
}

// HandleList serves GET /v1/jobs from this server's own job table.
func (s *Server) HandleList(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Jobs())
}

// HandleGet serves GET /v1/jobs/{id} from this server's own job table.
func (s *Server) HandleGet(w http.ResponseWriter, r *http.Request) {
	s.serveJob(w, r, s.Job)
}

// HandleCancel serves POST /v1/jobs/{id}/cancel (and DELETE
// /v1/jobs/{id}) for a job in this server's own table.
func (s *Server) HandleCancel(w http.ResponseWriter, r *http.Request) {
	s.serveJob(w, r, s.Cancel)
}

// serveJob applies op to the {id} job and writes its full status, or 404.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, op func(string) (*Job, bool)) {
	job, ok := op(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, s.Status(job, true))
}

// handleSweep evaluates a batch of points synchronously in the request,
// streaming one newline-delimited JSON SweepEvent as each point
// completes, then a final summary event. Closing the request aborts the
// remaining points.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if !s.AdmitClient(w, r) {
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, "%v", ErrDraining)
		return
	}
	var req api.SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid sweep request: %v", err)
		return
	}
	if len(req.Points) == 0 {
		WriteError(w, http.StatusBadRequest, "sweep needs at least one point")
		return
	}
	for _, p := range req.Points {
		if err := p.Config().Validate(); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if _, err := exp.ParsePolicy(p.Policy); err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	if err := req.Faults.Validate(); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}

	ctx := r.Context()
	j := &jobEval{s: s, opts: req.Workload.Options().Canonical()}
	ref, err := j.pointEval(ctx, exp.Point{Policy: exp.PolicyRISC})
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	seed, fo := faultScenario(req.Faults, ref)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	start := time.Now()

	events := make(chan api.SweepEvent)
	go func() {
		defer close(events)
		_, _ = exp.ParMap(ctx, len(req.Points), func(ctx context.Context, i int) (struct{}, error) {
			pt := req.Points[i]
			ev := api.SweepEvent{Index: i, Point: pt}
			pol, _ := exp.ParsePolicy(pt.Policy) // validated above
			rep, hit, err := j.eval(ctx, exp.Point{Config: pt.Config(), Policy: pol, Seed: seed, Faults: fo})
			ev.Cached = hit
			if err != nil {
				ev.Error = err.Error()
			} else {
				r := api.NewReport(rep, ref)
				ev.Report = &r
			}
			select {
			case events <- ev:
			case <-ctx.Done():
			}
			return struct{}{}, err
		})
	}()

	var completed, failed int
	for ev := range events {
		if ev.Error != "" {
			failed++
		} else {
			completed++
		}
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_ = enc.Encode(api.SweepEvent{
		Index:      len(req.Points),
		Done:       true,
		Completed:  completed,
		Failed:     failed,
		ElapsedSec: time.Since(start).Seconds(),
	})
	if flusher != nil {
		flusher.Flush()
	}
}
