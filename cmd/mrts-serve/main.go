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
//
// # Cluster mode
//
// With -id and -members, the daemon is one member of a sharded cluster:
// N of these processes, each configured with the same static member
// list, behave as one logical simulation service. A consistent-hash ring
// routes every job to an owning node by spec fingerprint (warm caches
// stay warm), each node replicates its journal records to a follower so
// a killed node's unfinished jobs are re-run elsewhere to byte-identical
// results, and idle nodes steal queued work from hot shards. Three nodes
// on one host:
//
//	mrts-serve -id a -addr :8341 -members a=http://127.0.0.1:8341,b=http://127.0.0.1:8342,c=http://127.0.0.1:8343 -journal /var/lib/mrts/a
//	mrts-serve -id b -addr :8342 -members ... -journal /var/lib/mrts/b
//	mrts-serve -id c -addr :8343 -members ... -journal /var/lib/mrts/c
//
// Submit to any member with cmd/mrts-submit (-addr takes a comma list
// for failover): non-owners redirect submissions to the owner, and
// status lookups fan out server-side, so every member answers for every
// job — including jobs adopted from a dead member. The -journal
// directory then also holds the replica streams received from peers, in
// replica-<peer>/ beside the node's own journal.jsonl.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mrts/internal/cluster"
	"mrts/internal/netfault"
	"mrts/internal/service"
	"mrts/internal/service/journal"
)

func main() {
	var (
		addr       = flag.String("addr", ":8341", "listen address")
		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 256, "queued jobs a new submission may find before it is refused (recovered and adopted jobs never are)")
		wcacheSize = flag.Int("wcache", 16, "workload cache capacity (built traces)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "default per-job execution timeout")
		journalDir = flag.String("journal", "", "directory for the write-ahead job journal (and, in cluster mode, peer replica streams); empty disables durability")
		rate       = flag.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-client burst size (0 = ceil(rate))")
		drain      = flag.Duration("drain", 30*time.Second, "max time to wait for in-flight jobs on shutdown")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables")

		id           = flag.String("id", "", "cluster mode: this node's member ID (must appear in -members)")
		membersArg   = flag.String("members", "", "cluster mode: static member list id=url,id=url,... (every node gets the same list)")
		probe        = flag.Duration("probe", time.Second, "cluster mode: peer liveness probe interval")
		probeTimeout = flag.Duration("probetimeout", 0, "cluster mode: per-attempt probe deadline (0 = probe interval)")
		deadAfter    = flag.Int("deadafter", 3, "cluster mode: consecutive failed probes before a peer is declared suspect")
		suspectGrace = flag.Duration("suspectgrace", 0, "cluster mode: how long a suspect peer keeps failing before it is declared dead and adopted from (0 = 2x probe interval)")
		steal        = flag.Duration("steal", 250*time.Millisecond, "cluster mode: work-steal poll interval (negative disables)")
		netfaultSpec = flag.String("netfault", "", "cluster mode: seeded network-fault injection for chaos runs, e.g. seed=42,drop=0.02,dup=0.02,partitions=1,horizon=30s (empty disables; see internal/netfault)")
	)
	flag.Parse()

	name := "mrts-serve"
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	clustered := *id != "" || *membersArg != ""
	var members []cluster.Member
	if clustered {
		if *id != "" {
			name = fmt.Sprintf("mrts-serve[%s]", *id)
		}
		var err error
		if members, err = cluster.ParseMembers(*membersArg); err != nil {
			fatal(err)
		}
	}

	var j *journal.Journal
	if *journalDir != "" {
		var err error
		j, err = journal.Open(*journalDir)
		if err != nil {
			fatal(fmt.Errorf("journal: %w", err))
		}
		st := j.Stats()
		fmt.Fprintf(os.Stderr, "%s: journal %s: %d records replayed, %d skipped\n",
			name, *journalDir, st.Replayed, st.ReplaySkipped)
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
			fmt.Fprintf(os.Stderr, "%s: pprof on %s\n", name, *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "%s: pprof: %v\n", name, err)
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
		Node:              *id,
	})
	defer s.Close()
	if n := s.RecoveredJobs(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: re-running %d unfinished jobs from the journal\n", name, n)
	}

	handler := s.Handler()
	if clustered {
		var nf *netfault.Network
		if *netfaultSpec != "" {
			seed, opts, err := netfault.ParseSpec(*netfaultSpec)
			if err != nil {
				fatal(err)
			}
			for _, m := range members {
				opts.Members = append(opts.Members, m.ID)
			}
			if nf, err = netfault.New(seed, opts); err != nil {
				fatal(err)
			}
			nf.Start(time.Now())
			fmt.Fprintf(os.Stderr, "%s: netfault seed %d active: %s\n",
				name, seed, strings.Join(nf.Windows(), "; "))
		}
		node, err := cluster.New(cluster.Config{
			Self:          *id,
			Members:       members,
			Dir:           *journalDir,
			ProbeInterval: *probe,
			ProbeTimeout:  *probeTimeout,
			DeadAfter:     *deadAfter,
			SuspectGrace:  *suspectGrace,
			StealInterval: *steal,
			NetFault:      nf,
		}, s)
		if err != nil {
			fatal(err)
		}
		defer node.Close()
		handler = node.Handler()
		fmt.Fprintf(os.Stderr, "%s: cluster of %d members\n", name, len(members))
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "%s: listening on %s\n", name, *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		// Graceful drain: /readyz goes 503 and submissions are refused
		// immediately, then in-flight jobs get up to -drain to finish
		// before Close cancels whatever is left.
		fmt.Fprintf(os.Stderr, "%s: %s, draining (up to %s)\n", name, sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		}
		_ = srv.Shutdown(ctx)
		if pprofSrv != nil {
			_ = pprofSrv.Shutdown(ctx)
		}
	}
}
