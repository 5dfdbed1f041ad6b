// Command mrts-serve runs the mRTS simulation service: a long-lived
// daemon that accepts simulation, figure and sweep jobs over HTTP/JSON,
// executes them on a bounded worker pool, and amortises repeated work
// with a per-workload report memo and a shared workload cache.
//
// Usage:
//
//	mrts-serve -addr :8341 -workers 8
//	mrts-serve -journal /var/lib/mrts -rate 50 -drain 30s
//
// With -journal, every accepted job is recorded in a write-ahead journal
// before it is acknowledged; on restart the daemon replays the journal,
// restores completed results and re-runs whatever was queued or in
// flight when the previous process died. -rate/-burst enable per-client
// token-bucket admission control (rejections carry Retry-After). On
// SIGINT/SIGTERM the daemon flips /readyz to 503, stops admitting jobs
// and waits up to -drain for in-flight work before exiting.
//
// Endpoints: POST/GET /v1/jobs, GET /v1/jobs/{id},
// POST /v1/jobs/{id}/cancel, POST /v1/sweep (ndjson stream),
// GET /healthz, GET /readyz, GET /metrics. Submit jobs with
// cmd/mrts-submit or plain curl; see the README's "Running as a
// service" and "Running in production" sections.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mrts/internal/service"
	"mrts/internal/service/journal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8341", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 256, "maximum queued jobs")
		wcacheSize = flag.Int("wcache", 16, "workload cache capacity (built traces)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "default per-job execution timeout")
		journalDir = flag.String("journal", "", "directory for the write-ahead job journal; empty disables durability")
		rate       = flag.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-client burst size (0 = ceil(rate))")
		drain      = flag.Duration("drain", 30*time.Second, "max time to wait for in-flight jobs on shutdown")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")
	)
	flag.Parse()

	var j *journal.Journal
	if *journalDir != "" {
		var err error
		j, err = journal.Open(*journalDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mrts-serve: journal:", err)
			os.Exit(1)
		}
		st := j.Stats()
		fmt.Fprintf(os.Stderr, "mrts-serve: journal %s: %d records replayed, %d skipped\n",
			*journalDir, st.Replayed, st.ReplaySkipped)
	}

	// The pprof listener gets its own mux and server — never
	// http.DefaultServeMux, which any imported package can register
	// handlers on — and shuts down with the API server below.
	var pprofSrv *http.Server
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv = &http.Server{Addr: *pprofAddr, Handler: mux}
		go func() {
			fmt.Fprintf(os.Stderr, "mrts-serve: pprof on %s\n", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "mrts-serve: pprof:", err)
			}
		}()
	}

	s := service.New(service.Options{
		Workers:           *workers,
		QueueDepth:        *queue,
		WorkloadCacheSize: *wcacheSize,
		JobTimeout:        *timeout,
		Journal:           j, // server owns it and closes it
		RatePerSec:        *rate,
		RateBurst:         *burst,
	})
	defer s.Close()
	if n := s.RecoveredJobs(); n > 0 {
		fmt.Fprintf(os.Stderr, "mrts-serve: re-running %d unfinished jobs from the journal\n", n)
	}

	srv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mrts-serve: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "mrts-serve:", err)
		os.Exit(1)
	case sig := <-sigc:
		// Graceful drain: /readyz goes 503 and submissions are refused
		// immediately, then in-flight jobs get up to -drain to finish
		// before Close cancels whatever is left.
		fmt.Fprintf(os.Stderr, "mrts-serve: %s, draining (up to %s)\n", sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mrts-serve:", err)
		}
		_ = srv.Shutdown(ctx)
		if pprofSrv != nil {
			_ = pprofSrv.Shutdown(ctx)
		}
	}
}
