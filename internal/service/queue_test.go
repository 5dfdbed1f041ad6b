package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mrts/internal/service/api"
	"mrts/internal/service/journal"
)

// scrape renders the server's /metrics page and reads one plain
// counter/gauge line off it (-1 when the metric is absent).
func scrape(s *Server, name string) int64 {
	var page strings.Builder
	s.Metrics().WriteText(&page)
	for _, line := range strings.Split(page.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return -1
			}
			return n
		}
	}
	return -1
}

// heldServer returns a one-worker server whose worker is held by a
// running blocker job until Close, so nothing else leaves the run queue
// except through the API under test.
func heldServer(t *testing.T, depth int) (*Server, *Job) {
	t.Helper()
	s := New(Options{
		Workers:    1,
		QueueDepth: depth,
		ExecOverride: func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	})
	t.Cleanup(s.Close)
	blocker, err := s.Submit(simSpec())
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.Status(blocker, false).State != api.StateRunning; {
		if time.Now().After(deadline) {
			t.Fatal("blocker job never started")
		}
		time.Sleep(time.Millisecond)
	}
	return s, blocker
}

// seededSpec is a valid sim spec made distinct by its workload seed.
func seededSpec(seed uint64) api.JobSpec {
	spec := simSpec()
	spec.Workload.Seed = seed
	return spec
}

// A queued job that is cancelled or resolved leaves the run queue at
// once: its slot is free for the very next submission, and QueueLen and
// mrts_queue_depth both read 0.
func TestFinishedQueuedJobFreesItsSlot(t *testing.T) {
	s, _ := heldServer(t, 1)
	finish := map[string]func(id string) bool{
		"cancel": func(id string) bool { _, ok := s.Cancel(id); return ok },
		"resolve": func(id string) bool {
			return s.Resolve(id, api.StateDone, "", &api.JobResult{Text: "elsewhere"})
		},
	}
	for _, how := range []string{"cancel", "resolve"} {
		queued, err := s.Submit(seededSpec(10))
		if err != nil {
			t.Fatalf("%s: submit into the empty slot: %v", how, err)
		}
		if !finish[how](queued.ID) {
			t.Fatalf("%s of queued job %s refused", how, queued.ID)
		}
		if st := s.Status(queued, false).State; !st.Terminal() {
			t.Fatalf("%s: job state %s, want terminal", how, st)
		}
		if n := s.QueueLen(); n != 0 {
			t.Errorf("%s: QueueLen = %d after the only queued job finished, want 0", how, n)
		}
		if n := scrape(s, "mrts_queue_depth"); n != 0 {
			t.Errorf("%s: mrts_queue_depth = %d, want 0", how, n)
		}
		next, err := s.Submit(seededSpec(11))
		if err != nil {
			t.Fatalf("%s: next submit refused: %v", how, err)
		}
		if _, ok := s.Cancel(next.ID); !ok {
			t.Fatalf("%s: cancel of the next job failed", how)
		}
	}
}

// Adopt recovers acknowledged work: a dead peer's backlog larger than
// QueueDepth is installed whole, while the bound still refuses fresh
// submissions.
func TestAdoptIgnoresQueueBound(t *testing.T) {
	s, _ := heldServer(t, 1)
	var recs []journal.Record
	for i := 0; i < 4; i++ {
		spec := seededSpec(uint64(20 + i))
		recs = append(recs, journal.Record{Kind: journal.KindSubmit, ID: fmt.Sprintf("peer-%d", i), Spec: &spec})
	}
	requeued, completed := s.Adopt(recs)
	if requeued != 4 || completed != 0 {
		t.Fatalf("Adopt = (%d requeued, %d completed), want (4, 0)", requeued, completed)
	}
	for _, r := range recs {
		j, ok := s.Job(r.ID)
		if !ok {
			t.Fatalf("adopted job %s missing", r.ID)
		}
		if st := s.Status(j, false).State; st != api.StateQueued {
			t.Errorf("adopted job %s is %s, want queued", r.ID, st)
		}
	}
	if n := s.QueueLen(); n != 4 {
		t.Errorf("QueueLen = %d, want 4", n)
	}
	if n := scrape(s, "mrts_queue_depth"); n != 4 {
		t.Errorf("mrts_queue_depth = %d, want 4", n)
	}
	if _, err := s.Submit(seededSpec(30)); !errors.Is(err, ErrQueueFull) {
		t.Errorf("fresh submit over the bound: err = %v, want ErrQueueFull", err)
	}
}

// A job admitted while a worker idles is handed to that worker: it is
// never counted in QueueLen nor stealable, so an idle node never looks
// hot to a thief.
func TestIdleWorkerJobIsNotStealable(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := New(Options{Workers: 1, ExecOverride: func(ctx context.Context, spec api.JobSpec) (*api.JobResult, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &api.JobResult{}, nil
	}})
	defer s.Close()
	idle := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.idle == 1
	}
	for deadline := time.Now().Add(5 * time.Second); !idle(); {
		if time.Now().After(deadline) {
			t.Fatal("worker never went idle")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(simSpec()); err != nil {
		t.Fatal(err)
	}
	if n := s.QueueLen(); n != 0 {
		t.Errorf("QueueLen = %d with the job handed to the idle worker, want 0", n)
	}
	if j, ok := s.TakeQueued(); ok {
		t.Errorf("TakeQueued took %s from an idle worker", j.ID)
	}
}

// Submitters, a canceller, a resolver, a thief (TakeQueued, then Requeue
// or Resolve) and two workers share the run queue at once; under -race
// this covers the condition-variable wake-ups, the durable wait and
// TakeQueued racing Cancel and Resolve. Every admitted job ends terminal,
// a job that was resolved or cancelled while queued never runs, none
// runs twice, and the queue ends empty.
func TestQueueConcurrentOpsSettle(t *testing.T) {
	jr, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	runs := map[uint64]int{} // executions per workload seed (one seed per job)
	s := New(Options{Workers: 2, QueueDepth: 8, Journal: jr, ExecOverride: func(_ context.Context, spec api.JobSpec) (*api.JobResult, error) {
		mu.Lock()
		runs[spec.Workload.Seed]++
		mu.Unlock()
		return &api.JobResult{}, nil
	}})
	defer s.Close()

	var (
		admitted     []*Job
		resolved     = map[string]bool{}
		seed         atomic.Uint64
		stop         = make(chan struct{})
		subs, others sync.WaitGroup
	)
	pick := func(rng *rand.Rand) *Job {
		mu.Lock()
		defer mu.Unlock()
		if len(admitted) == 0 {
			return nil
		}
		return admitted[rng.Intn(len(admitted))]
	}
	for g := 0; g < 3; g++ {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := 0; i < 50; i++ {
				j, err := s.Submit(seededSpec(seed.Add(1)))
				if errors.Is(err, ErrQueueFull) {
					continue
				}
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				admitted = append(admitted, j)
				mu.Unlock()
			}
		}()
	}
	loop := func(id int64, step func(rng *rand.Rand)) {
		others.Add(1)
		go func() {
			defer others.Done()
			rng := rand.New(rand.NewSource(id))
			for {
				select {
				case <-stop:
					return
				default:
					step(rng)
				}
			}
		}()
	}
	loop(1, func(rng *rand.Rand) {
		if j := pick(rng); j != nil {
			s.Cancel(j.ID)
		}
	})
	loop(2, func(rng *rand.Rand) {
		if j := pick(rng); j != nil && s.Resolve(j.ID, api.StateDone, "", &api.JobResult{}) {
			mu.Lock()
			resolved[j.ID] = true
			mu.Unlock()
		}
	})
	loop(3, func(rng *rand.Rand) {
		j, ok := s.TakeQueued()
		if !ok {
			return
		}
		if rng.Intn(2) == 0 {
			s.Requeue(j)
			return
		}
		if s.Resolve(j.ID, api.StateDone, "", &api.JobResult{}) {
			mu.Lock()
			resolved[j.ID] = true
			mu.Unlock()
		} else {
			s.Requeue(j) // cancelled since the take: a no-op
		}
	})
	subs.Wait()
	close(stop)
	others.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, j := range admitted {
		st := s.Status(j, false).State
		n := runs[j.Spec.Workload.Seed]
		switch {
		case !st.Terminal():
			t.Errorf("job %s ended %s after drain", j.ID, st)
		case n > 1:
			t.Errorf("job %s ran %d times", j.ID, n)
		case n == 1 && (resolved[j.ID] || st != api.StateDone):
			t.Errorf("job %s ran although it ended %s (resolved %v)", j.ID, st, resolved[j.ID])
		}
	}
	if n := s.QueueLen(); n != 0 {
		t.Errorf("QueueLen = %d after drain, want 0", n)
	}
	if n := scrape(s, "mrts_queue_depth"); n != 0 {
		t.Errorf("mrts_queue_depth = %d after drain, want 0", n)
	}
}

// modelJob is the reference model's view of one job.
type modelJob struct {
	state api.JobState
	taken bool
	key   string
}

// queueModel is the plain slice+map reference the run queue is checked
// against: job table, listing order, FIFO and idempotency keys.
type queueModel struct {
	depth int
	jobs  map[string]*modelJob
	order []string
	queue []string
	idem  map[string]string
}

func (m *queueModel) admit(id, key string) {
	m.jobs[id] = &modelJob{state: api.StateQueued, key: key}
	m.order = append(m.order, id)
	m.queue = append(m.queue, id)
	if key != "" {
		m.idem[key] = id
	}
}

func (m *queueModel) dequeue(id string) {
	if i := slices.Index(m.queue, id); i >= 0 {
		m.queue = slices.Delete(m.queue, i, i+1)
	}
}

// TestQueueMatchesModel drives random sequences of every run-queue
// operation against a one-worker server whose worker is held, so the
// queue is deterministic, and compares each step's outcome, every job's
// state, the FIFO, QueueLen and mrts_queue_depth with the reference
// model. Seeds are fixed; a failure names its seed and step, and
// `-run 'TestQueueMatchesModel/seed=N$'` replays it.
func TestQueueMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("seed %d", seed)
			runQueueModel(t, seed)
		})
	}
}

func runQueueModel(t *testing.T, seed int64) {
	const depth = 3
	rng := rand.New(rand.NewSource(seed))
	s, blocker := heldServer(t, depth)
	m := &queueModel{
		depth: depth,
		jobs:  map[string]*modelJob{blocker.ID: {state: api.StateRunning}},
		order: []string{blocker.ID},
		idem:  map[string]string{},
	}
	handles := map[string]*Job{} // every job a call handed back, for Requeue
	keys := []string{"", "", "k0", "k1", "k2"}
	nextID := 0
	freshID := func() string { nextID++; return fmt.Sprintf("m%d", nextID) }
	// pickID prefers a job the model knows (never the blocker), else an
	// ID nobody holds.
	pickID := func() string {
		if len(m.order) > 1 && rng.Intn(5) > 0 {
			return m.order[1+rng.Intn(len(m.order)-1)]
		}
		return freshID()
	}
	spec := func() api.JobSpec { return seededSpec(uint64(100 + rng.Intn(50))) }

	for step := 0; step < 80; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		switch op := rng.Intn(7); op {
		case 0, 1: // SubmitIdem or SubmitWithID
			key := keys[rng.Intn(len(keys))]
			id := ""
			if op == 1 {
				id = pickID()
			}
			wantID, wantDedup := id, false
			if id == "" {
				if jid, ok := m.idem[key]; ok && key != "" && m.jobs[jid] != nil {
					wantID, wantDedup = jid, true
				}
			} else if m.jobs[id] != nil {
				wantDedup = true
			}
			full := !wantDedup && len(m.queue) >= m.depth
			var (
				j       *Job
				deduped bool
				err     error
			)
			if op == 0 {
				j, deduped, err = s.SubmitIdem(key, spec())
			} else {
				j, deduped, err = s.SubmitWithID(id, key, spec())
			}
			switch {
			case full:
				if !errors.Is(err, ErrQueueFull) {
					fail("submit(%q, %q) over the bound: err %v, want ErrQueueFull", id, key, err)
				}
			case err != nil:
				fail("submit(%q, %q): %v", id, key, err)
			case deduped != wantDedup || wantID != "" && j.ID != wantID:
				fail("submit(%q, %q) = (%s, deduped %v), want (%q, deduped %v)", id, key, j.ID, deduped, wantID, wantDedup)
			case !deduped:
				m.admit(j.ID, key)
			}
			if j != nil {
				handles[j.ID] = j
			}
		case 2: // Cancel
			id := pickID()
			j, ok := s.Cancel(id)
			mj := m.jobs[id]
			if ok != (mj != nil) {
				fail("Cancel(%s) found = %v, model %v", id, ok, mj != nil)
			}
			if mj != nil && mj.state == api.StateQueued {
				mj.state = api.StateCancelled
				m.dequeue(id)
			}
			if j != nil {
				handles[id] = j
			}
		case 3: // TakeQueued
			j, ok := s.TakeQueued()
			if ok != (len(m.queue) > 0) {
				fail("TakeQueued ok = %v with model queue %v", ok, m.queue)
			}
			if ok {
				if j.ID != m.queue[0] {
					fail("TakeQueued took %s, want the oldest %s", j.ID, m.queue[0])
				}
				m.queue = m.queue[1:]
				m.jobs[j.ID].taken = true
				handles[j.ID] = j
			}
		case 4: // Requeue a handle (taken or not)
			if len(handles) == 0 {
				continue
			}
			ids := make([]string, 0, len(handles))
			for id := range handles {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			id := ids[rng.Intn(len(ids))]
			mj := m.jobs[id]
			want := mj != nil && mj.taken && mj.state == api.StateQueued
			if got := s.Requeue(handles[id]); got != want {
				fail("Requeue(%s) = %v, want %v", id, got, want)
			}
			if mj != nil {
				mj.taken = false
			}
			if want {
				m.queue = append(m.queue, id)
			}
		case 5: // Resolve, taken or not
			id := pickID()
			mj := m.jobs[id]
			want := mj != nil && mj.state == api.StateQueued
			if got := s.Resolve(id, api.StateDone, "", &api.JobResult{Text: "resolved"}); got != want {
				fail("Resolve(%s) = %v, want %v", id, got, want)
			}
			if want {
				mj.state = api.StateDone
				mj.taken = false
				m.dequeue(id)
			}
		case 6: // Adopt a peer's record stream
			var recs []journal.Record
			wantRequeued, wantCompleted := 0, 0
			type install struct {
				id, key string
				state   api.JobState
			}
			var installs []install
			seen := map[string]bool{}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				id := pickID()
				if seen[id] {
					continue
				}
				seen[id] = true
				sp, key := spec(), keys[rng.Intn(len(keys))]
				recs = append(recs, journal.Record{Kind: journal.KindSubmit, ID: id, IdemKey: key, Spec: &sp})
				state := api.StateQueued
				switch rng.Intn(4) {
				case 1:
					state = api.StateDone
					recs = append(recs, journal.Record{Kind: journal.KindComplete, ID: id, State: state, Result: &api.JobResult{Text: "peer"}})
				case 2:
					state = api.StateCancelled // cancelled short of a terminal record: not adoptable
					recs = append(recs, journal.Record{Kind: journal.KindCancel, ID: id})
				case 3:
					state = "" // voided by a forget
					recs = append(recs, journal.Record{Kind: journal.KindForget, ID: id})
				}
				if m.jobs[id] != nil || state == api.StateCancelled || state == "" {
					continue
				}
				installs = append(installs, install{id, key, state})
				if state == api.StateQueued {
					wantRequeued++
				} else {
					wantCompleted++
				}
			}
			requeued, completed := s.Adopt(recs)
			if requeued != wantRequeued || completed != wantCompleted {
				fail("Adopt = (%d, %d), want (%d, %d)", requeued, completed, wantRequeued, wantCompleted)
			}
			for _, in := range installs {
				m.admit(in.id, in.key)
				if in.state != api.StateQueued {
					m.jobs[in.id].state = in.state
					m.dequeue(in.id)
				}
			}
		}

		// Compare the whole observable state after every step.
		var got []string
		for _, st := range s.Jobs() {
			got = append(got, st.ID+"="+string(st.State))
		}
		var want []string
		for _, id := range m.order {
			want = append(want, id+"="+string(m.jobs[id].state))
		}
		if !slices.Equal(got, want) {
			fail("job table\n got %v\nwant %v", got, want)
		}
		s.mu.Lock()
		var fifo []string
		for _, j := range s.queue {
			fifo = append(fifo, j.ID)
		}
		s.mu.Unlock()
		if !slices.Equal(fifo, m.queue) {
			fail("run queue %v, want %v", fifo, m.queue)
		}
		if n := s.QueueLen(); n != len(m.queue) {
			fail("QueueLen = %d, want %d", n, len(m.queue))
		}
		if n := scrape(s, "mrts_queue_depth"); n != int64(len(m.queue)) {
			fail("mrts_queue_depth = %d, want %d", n, len(m.queue))
		}
	}
}
