// Cluster: run three mrts-serve cluster nodes as one logical service, watch
// submissions route to owners by spec fingerprint, SIGKILL one node
// mid-flight, and verify that its follower adopts and re-runs every
// unfinished job to byte-identical results — zero jobs lost.
//
//	go run ./examples/cluster
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"mrts/internal/service/api"
	"mrts/internal/service/client"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run drives the demo. Every failure returns through it, so the deferred
// kills stop the nodes on the error path too.
func run() error {
	tmp, err := os.MkdirTemp("", "mrts-cluster-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	// 1. Build the real node binary so SIGKILL hits the node itself.
	bin := filepath.Join(tmp, "mrts-serve")
	fmt.Println("building cmd/mrts-serve ...")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mrts-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}

	// 2. Three members on one host, all configured with the same list.
	ids := []string{"a", "b", "c"}
	addrs := make([]string, len(ids))
	var memberList []string
	for i, id := range ids {
		if addrs[i], err = freeAddr(); err != nil {
			return err
		}
		memberList = append(memberList, fmt.Sprintf("%s=http://%s", id, addrs[i]))
	}
	members := strings.Join(memberList, ",")

	procs := make(map[string]*exec.Cmd, len(ids))
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_, _ = p.Process.Wait()
		}
	}()
	for i, id := range ids {
		cmd := exec.Command(bin,
			"-id", id, "-addr", addrs[i], "-members", members,
			"-journal", filepath.Join(tmp, id), "-workers", "2",
			"-probe", "100ms", "-deadafter", "2", "-steal", "50ms")
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		procs[id] = cmd
	}

	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	cc := client.NewCluster(urls)
	cc.Retry = client.RetryPolicy{MaxAttempts: 60, BaseDelay: 50 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	// One bound on the whole demo: a job the survivors never adopt fails
	// the wait instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := waitHealthy(ctx, cc); err != nil {
		return err
	}
	fmt.Printf("\n--- 3-node cluster up: %s ---\n", members)

	// 3. Submit a batch; the ring spreads ownership across the members.
	w := api.WorkloadSpec{Frames: 12, Seed: 1}
	specs := []api.JobSpec{
		{Type: api.JobFig, Workload: w, Fig: "8", MaxPRC: 3, MaxCG: 2},
		{Type: api.JobFig, Workload: w, Fig: "overhead"},
		{Type: api.JobSim, Workload: w, PRC: 2, CG: 1, Policy: "mrts"},
		{Type: api.JobSim, Workload: w, PRC: 1, CG: 2, Policy: "mrts"},
		{Type: api.JobSim, Workload: w, PRC: 3, CG: 1, Policy: "mrts"},
		{Type: api.JobSim, Workload: api.WorkloadSpec{Frames: 12, Seed: 2}, PRC: 2, CG: 2, Policy: "mrts"},
	}
	ids2 := make([]string, len(specs))
	for i, spec := range specs {
		id, err := cc.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		ids2[i] = id
		fmt.Printf("  accepted %s (%s %s)\n", id, spec.Type, spec.Fig)
	}

	// 4. SIGKILL one member while work is still in flight. Its follower
	// holds the replicated journal records and adopts the orphans.
	time.Sleep(150 * time.Millisecond)
	victim := "b"
	fmt.Printf("\n--- SIGKILL node %s mid-flight ---\n", victim)
	_ = procs[victim].Process.Kill()
	_, _ = procs[victim].Process.Wait()
	delete(procs, victim)

	// 5. Every job still completes, served by the survivors. Until they
	// adopt the dead node's jobs, lookups answer 503 and Wait retries.
	for i, id := range ids2 {
		st, err := cc.Wait(ctx, id, 25*time.Millisecond)
		if err != nil {
			return fmt.Errorf("job %s lost after node kill: %w", id, err)
		}
		fmt.Printf("  %s -> %s (spec %d)\n", id, st.State, i)
		if st.State != api.StateDone {
			return fmt.Errorf("job %s finished %s: %s", id, st.State, st.Error)
		}
	}

	// 6. Determinism check: a fresh run of spec 0 on the degraded
	// cluster reproduces the same bytes.
	orig, err := cc.Job(ctx, ids2[0])
	if err != nil {
		return err
	}
	rerunID, err := cc.Submit(ctx, specs[0])
	if err != nil {
		return err
	}
	rerun, err := cc.Wait(ctx, rerunID, 25*time.Millisecond)
	if err != nil {
		return err
	}
	same := orig.Result != nil && rerun.Result != nil && orig.Result.Text == rerun.Result.Text
	fmt.Printf("\nfigure after node kill == fresh run: %v (%d bytes)\n", same, len(orig.Result.Text))
	if !same {
		return errors.New("node failure changed the output")
	}
	fmt.Println("done: zero jobs lost across one node kill")
	return nil
}

func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func waitHealthy(ctx context.Context, cc *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := cc.Healthz(ctx); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("cluster never became healthy")
		}
		time.Sleep(25 * time.Millisecond)
	}
}
