package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
	"mrts/internal/service/journal"
)

// The cluster chaos harness runs three REAL node processes — this test
// binary re-executed with MRTS_CLUSTER_NODE=1 — SIGKILLs the member that
// owns an in-flight job, and asserts the cluster invariant: zero
// acknowledged jobs lost, every result byte-identical to an
// uninterrupted single-server run.

func TestMain(m *testing.M) {
	if os.Getenv("MRTS_CLUSTER_NODE") == "1" {
		clusterNode()
		return
	}
	os.Exit(m.Run())
}

// clusterNode is the child: one journaled cluster member on a
// pre-assigned address, running until it is killed.
func clusterNode() {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "cluster node:", err)
		os.Exit(1)
	}
	id := os.Getenv("MRTS_NODE_ID")
	dir := os.Getenv("MRTS_NODE_DIR")
	addr := os.Getenv("MRTS_NODE_ADDR")
	memberEnv := os.Getenv("MRTS_NODE_MEMBERS") // "id=url,id=url,..."
	if id == "" || dir == "" || addr == "" {
		fail(fmt.Errorf("MRTS_NODE_{ID,DIR,ADDR,MEMBERS} all required"))
	}
	members, err := ParseMembers(memberEnv)
	if err != nil {
		fail(err)
	}
	// The listener comes first: peers probe this address from the moment
	// they start, and an unbound port would count against us.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fail(err)
	}
	j, err := journal.Open(dir)
	if err != nil {
		fail(err)
	}
	s := service.New(service.Options{Workers: 2, Journal: j, Node: id})
	n, err := New(Config{
		Self:          id,
		Members:       members,
		Dir:           dir,
		ProbeInterval: 100 * time.Millisecond,
		DeadAfter:     2,
		StealInterval: 50 * time.Millisecond,
	}, s)
	if err != nil {
		fail(err)
	}
	_ = http.Serve(ln, n.Handler()) // until SIGKILL
}

// chaosClusterSpecs is the job mix: a slow figure sweep guaranteed to be
// in flight when the kill lands, plus figures, sims, faults and tenants.
func chaosClusterSpecs() []api.JobSpec {
	w := api.WorkloadSpec{Frames: 6, Seed: 1}
	return []api.JobSpec{
		{Type: api.JobFig, Workload: w, Fig: "8", MaxPRC: 3, MaxCG: 2},
		{Type: api.JobFig, Workload: w, Fig: "overhead"},
		{Type: api.JobFig, Workload: w, Fig: "tenants", MaxPRC: 2, MaxCG: 2, Tenants: 2, Mix: "skewed"},
		{Type: api.JobSim, Workload: w, PRC: 2, CG: 1, Policy: "mrts"},
		{Type: api.JobSim, Workload: w, PRC: 1, CG: 2, Policy: "mrts",
			Faults: &api.FaultSpec{Seed: 7, FailCG: 1}},
		{Type: api.JobSim, Workload: api.WorkloadSpec{Frames: 6, Seed: 2}, PRC: 2, CG: 2, Policy: "mrts"},
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClusterChaosNodeKillLosesNothing is the acceptance check from the
// failure model: SIGKILL one member of a live 3-node cluster while its
// jobs are unfinished; every job still completes on the survivors with
// results byte-identical to an uninterrupted plain-server run.
func TestClusterChaosNodeKillLosesNothing(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("chaos harness needs SIGKILL")
	}
	if testing.Short() {
		t.Skip("chaos harness skipped in -short mode")
	}
	ctx := context.Background()
	specs := chaosClusterSpecs()

	// Reference payloads from an uninterrupted, cluster-free server.
	ref := service.New(service.Options{Workers: 2})
	defer ref.Close()
	want := make([]string, len(specs))
	for i, spec := range specs {
		job, err := ref.Submit(spec)
		if err != nil {
			t.Fatalf("reference submit %d: %v", i, err)
		}
		if err := ref.Wait(ctx, job); err != nil {
			t.Fatal(err)
		}
		st := ref.Status(job, true)
		if st.State != api.StateDone {
			t.Fatalf("reference job %d = %s (%s)", i, st.State, st.Error)
		}
		want[i] = payload(t, &st)
	}

	// Three real node processes on pre-assigned ports, one shared list.
	ids := []string{"a", "b", "c"}
	dir := t.TempDir()
	addrs := make(map[string]string, len(ids))
	var memberList []string
	for _, id := range ids {
		addrs[id] = freePort(t)
		memberList = append(memberList, id+"=http://"+addrs[id])
	}
	members := strings.Join(memberList, ",")
	procs := make(map[string]*exec.Cmd, len(ids))
	for _, id := range ids {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"MRTS_CLUSTER_NODE=1",
			"MRTS_NODE_ID="+id,
			"MRTS_NODE_DIR="+filepath.Join(dir, id),
			"MRTS_NODE_ADDR="+addrs[id],
			"MRTS_NODE_MEMBERS="+members,
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		procs[id] = cmd
	}
	defer func() {
		for _, p := range procs {
			_ = p.Process.Kill()
			_, _ = p.Process.Wait()
		}
	}()

	urls := make([]string, len(ids))
	for i, id := range ids {
		urls[i] = "http://" + addrs[id]
	}
	cc := client.NewCluster(urls)
	cc.Retry = client.RetryPolicy{MaxAttempts: 40, BaseDelay: 25 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	healthyBy := time.Now().Add(15 * time.Second)
	for {
		if err := cc.Healthz(ctx); err == nil {
			break
		}
		if time.Now().After(healthyBy) {
			t.Fatal("cluster never became healthy")
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The victim is whoever owns spec 0 (the slow fig-8 sweep): the ring
	// is a pure function of the member IDs, so the test computes the same
	// placement the nodes do. Killing the owner right after the acks
	// guarantees the kill lands while its work is unfinished.
	victim := NewRing(ids).Owner(Fingerprint(specs[0]), nil)
	jobs := make([]string, len(specs))
	for i, spec := range specs {
		id, err := cc.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit spec %d: %v", i, err)
		}
		jobs[i] = id
	}
	t.Logf("killing %s (owner of spec 0) with %d jobs in flight", victim, len(jobs))
	_ = procs[victim].Process.Kill()
	_, _ = procs[victim].Process.Wait()
	delete(procs, victim)

	// Zero lost jobs: every acknowledged job completes on the survivors.
	// Inside the adoption window lookups answer 503, which Wait rides
	// through; a 404 ends it.
	wctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	for i, id := range jobs {
		st, err := cc.Wait(wctx, id, 25*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s (spec %d) lost after node kill: %v", id, i, err)
		}
		if st.State != api.StateDone {
			t.Fatalf("job %s (spec %d) finished %s: %s", id, i, st.State, st.Error)
		}
		if got := payload(t, st); got != want[i] {
			t.Errorf("job %s (spec %d) diverged from uninterrupted run:\n got: %q\nwant: %q",
				id, i, got, want[i])
		}
	}

	// The degraded cluster still reproduces the same bytes on a fresh run.
	rerun, err := cc.Submit(ctx, specs[0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := cc.Wait(ctx, rerun, 25*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := payload(t, st); got != want[0] {
		t.Error("re-run after node kill produced different bytes")
	}
}
