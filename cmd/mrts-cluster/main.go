// Command mrts-cluster runs one member of a sharded mrts-serve cluster:
// N of these processes, each configured with the same static member
// list, behave as one logical simulation service. A consistent-hash
// ring routes every job to an owning node by spec fingerprint (warm
// caches stay warm), each node replicates its journal records to a
// follower so a killed node's unfinished jobs are re-run elsewhere to
// byte-identical results, and idle nodes steal queued work from hot
// shards.
//
// Usage (three nodes on one host):
//
//	mrts-cluster -id a -addr :8341 -members a=http://127.0.0.1:8341,b=http://127.0.0.1:8342,c=http://127.0.0.1:8343 -dir /var/lib/mrts/a
//	mrts-cluster -id b -addr :8342 -members ... -dir /var/lib/mrts/b
//	mrts-cluster -id c -addr :8343 -members ... -dir /var/lib/mrts/c
//
// Submit to any member with cmd/mrts-submit (-addr takes a comma list
// for failover): non-owners redirect submissions to the owner, and
// status lookups fan out server-side, so every member answers for every
// job — including jobs adopted from a dead member.
//
// With -dir, the node keeps its own write-ahead journal in <dir>/journal
// and the replica streams received from peers in <dir>/replica-<peer>.
// On SIGINT/SIGTERM the node drains like mrts-serve.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
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
		id         = flag.String("id", "", "this node's member ID (must appear in -members)")
		addr       = flag.String("addr", ":8341", "listen address")
		membersArg = flag.String("members", "", "static member list: id=url,id=url,... (every node gets the same list)")
		dir        = flag.String("dir", "", "node data directory (journal + replica streams); empty disables durability")
		addrFile   = flag.String("addrfile", "", "write the actual listen address to this file once bound (tests)")

		workers    = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 256, "maximum queued jobs")
		wcacheSize = flag.Int("wcache", 16, "workload cache capacity (built traces)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "default per-job execution timeout")
		rate       = flag.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
		burst      = flag.Int("burst", 0, "per-client burst size (0 = ceil(rate))")
		drain      = flag.Duration("drain", 30*time.Second, "max time to wait for in-flight jobs on shutdown")

		probe        = flag.Duration("probe", time.Second, "peer liveness probe interval")
		probeTimeout = flag.Duration("probetimeout", 0, "per-attempt probe deadline (0 = probe interval)")
		deadAfter    = flag.Int("deadafter", 3, "consecutive failed probes before a peer is declared suspect")
		suspectGrace = flag.Duration("suspectgrace", 0, "how long a suspect peer keeps failing before it is declared dead and adopted from (0 = 2x probe interval)")
		steal        = flag.Duration("steal", 250*time.Millisecond, "work-steal poll interval (negative disables)")

		netfaultSpec = flag.String("netfault", "", "seeded network-fault injection for chaos runs, e.g. seed=42,drop=0.02,dup=0.02,partitions=1,horizon=30s (empty disables; see internal/netfault)")
	)
	flag.Parse()

	members, err := parseMembers(*membersArg)
	if err != nil {
		fatal(err)
	}

	var j *journal.Journal
	if *dir != "" {
		j, err = journal.Open(filepath.Join(*dir, "journal"))
		if err != nil {
			fatal(fmt.Errorf("journal: %w", err))
		}
		st := j.Stats()
		fmt.Fprintf(os.Stderr, "mrts-cluster[%s]: journal: %d records replayed, %d skipped\n",
			*id, st.Replayed, st.ReplaySkipped)
	}

	s := service.New(service.Options{
		Workers:           *workers,
		QueueDepth:        *queue,
		WorkloadCacheSize: *wcacheSize,
		JobTimeout:        *timeout,
		Journal:           j,
		RatePerSec:        *rate,
		RateBurst:         *burst,
		Node:              *id,
	})
	defer s.Close()
	if n := s.RecoveredJobs(); n > 0 {
		fmt.Fprintf(os.Stderr, "mrts-cluster[%s]: re-running %d unfinished jobs from the journal\n", *id, n)
	}

	var nf *netfault.Network
	if *netfaultSpec != "" {
		seed, opts, err := netfault.ParseSpec(*netfaultSpec)
		if err != nil {
			fatal(err)
		}
		var ids []string
		for _, m := range members {
			ids = append(ids, m.ID)
		}
		opts.Members = ids
		nf, err = netfault.New(seed, opts)
		if err != nil {
			fatal(err)
		}
		nf.Start(time.Now())
		fmt.Fprintf(os.Stderr, "mrts-cluster[%s]: netfault seed %d active: %s\n",
			*id, seed, strings.Join(nf.Windows(), "; "))
	}

	node, err := cluster.New(cluster.Config{
		Self:          *id,
		Members:       members,
		Dir:           *dir,
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

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fatal(err)
		}
	}
	srv := &http.Server{Handler: node.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "mrts-cluster[%s]: listening on %s (%d members)\n",
		*id, ln.Addr(), len(members))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "mrts-cluster[%s]: %s, draining (up to %s)\n", *id, sig, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "mrts-cluster[%s]: %v\n", *id, err)
		}
		_ = srv.Shutdown(ctx)
	}
}

// parseMembers parses "id=url,id=url,...".
func parseMembers(s string) ([]cluster.Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-members is required (id=url,id=url,...)")
	}
	var out []cluster.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad member %q (want id=url)", part)
		}
		out = append(out, cluster.Member{ID: id, Addr: strings.TrimRight(url, "/")})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrts-cluster:", err)
	os.Exit(1)
}
