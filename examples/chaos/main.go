// Chaos: crash the mrts-serve daemon with SIGKILL mid-sweep and watch
// the write-ahead journal put every job back. The demo builds the real
// cmd/mrts-serve binary, runs it with -journal, submits a batch of
// jobs, kills the process before they finish, restarts it on the same
// journal and shows that every job completes with the result an
// uninterrupted daemon would have produced.
//
//	go run ./examples/chaos
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
	"syscall"
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
// kill stops the daemon on the error path too.
func run() error {
	tmp, err := os.MkdirTemp("", "mrts-chaos-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	journalDir := filepath.Join(tmp, "journal")

	// 1. Build the real daemon binary so SIGKILL hits the server itself,
	// not a `go run` wrapper that would swallow the signal.
	bin := filepath.Join(tmp, "mrts-serve")
	fmt.Println("building cmd/mrts-serve ...")
	build := exec.Command("go", "build", "-o", bin, "./cmd/mrts-serve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("build: %w", err)
	}
	addr, err := freeAddr()
	if err != nil {
		return err
	}

	// srv is the running incarnation, if any; the deferred kill stops it
	// whichever way run returns.
	var srv *exec.Cmd
	defer func() {
		if srv != nil {
			_ = srv.Process.Kill()
			_, _ = srv.Process.Wait()
		}
	}()
	start := func() error {
		cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-journal", journalDir)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		srv = cmd
		return nil
	}
	c := client.New("http://" + addr)
	c.Retry = client.RetryPolicy{MaxAttempts: 60, BaseDelay: 50 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	ctx := context.Background()

	// 2. First incarnation: submit a batch of figure and simulation jobs.
	fmt.Println("\n--- incarnation 1: submitting jobs ---")
	if err := start(); err != nil {
		return err
	}
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}
	w := api.WorkloadSpec{Frames: 12, Seed: 1}
	specs := []api.JobSpec{
		{Type: api.JobFig, Workload: w, Fig: "8", MaxPRC: 3, MaxCG: 2},
		{Type: api.JobFig, Workload: w, Fig: "overhead"},
		{Type: api.JobSim, Workload: w, PRC: 2, CG: 1, Policy: "mrts"},
		{Type: api.JobSim, Workload: w, PRC: 1, CG: 2, Policy: "mrts"},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := c.Submit(ctx, spec)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		ids[i] = id
		fmt.Printf("  accepted %s (%s %s)\n", id, spec.Type, spec.Fig)
	}

	// 3. Pull the plug mid-flight. SIGKILL: no drain, no cleanup, the
	// same thing a power cut or an OOM kill would do.
	time.Sleep(200 * time.Millisecond)
	fmt.Println("\n--- SIGKILL mid-sweep ---")
	_ = srv.Process.Kill()
	_, _ = srv.Process.Wait()
	srv = nil
	if fi, err := os.Stat(filepath.Join(journalDir, "journal.jsonl")); err == nil {
		fmt.Printf("  journal survives the crash: %d bytes\n", fi.Size())
	}

	// 4. Second incarnation on the same journal: completed results come
	// back from the journal, unfinished jobs are re-enqueued and re-run
	// under their original IDs.
	fmt.Println("\n--- incarnation 2: replaying the journal ---")
	if err := start(); err != nil {
		return err
	}
	if err := waitHealthy(ctx, c); err != nil {
		return err
	}
	for i, id := range ids {
		st, err := c.Wait(ctx, id, 25*time.Millisecond)
		if err != nil {
			return fmt.Errorf("job %s lost after crash: %w", id, err)
		}
		fmt.Printf("  %s -> %s (spec %d)\n", id, st.State, i)
	}

	// 5. The recovered figure is byte-identical to a fresh, uninterrupted
	// run of the same job: deterministic jobs + journal replay means a
	// crash changes nothing about the science.
	recovered, err := c.Job(ctx, ids[0])
	if err != nil {
		return err
	}
	rerunID, err := c.Submit(ctx, specs[0]) // same spec, fresh job
	if err != nil {
		return err
	}
	rerun, err := c.Wait(ctx, rerunID, 25*time.Millisecond)
	if err != nil {
		return err
	}
	same := recovered.Result != nil && rerun.Result != nil && recovered.Result.Text == rerun.Result.Text
	fmt.Printf("\nrecovered figure == uninterrupted figure: %v (%d bytes)\n",
		same, len(recovered.Result.Text))
	if !same {
		return errors.New("crash recovery changed the output")
	}

	// 6. Finish with the graceful path for contrast: SIGTERM drains
	// in-flight work before the process exits.
	fmt.Println("\n--- SIGTERM: graceful drain ---")
	_ = srv.Process.Signal(syscall.SIGTERM)
	_, _ = srv.Process.Wait()
	srv = nil
	fmt.Println("done: zero jobs lost across one crash and one drain")
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

func waitHealthy(ctx context.Context, c *client.Client) error {
	deadline := time.Now().Add(15 * time.Second)
	for {
		if err := c.Healthz(ctx); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("daemon never became healthy")
		}
		time.Sleep(25 * time.Millisecond)
	}
}
