package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/arch"
	"mrts/internal/cluster"
	"mrts/internal/exp"
	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/client"
	"mrts/internal/service/journal"
	"mrts/internal/sim"
	"mrts/internal/workload"
)

const (
	// serveWorkers is the worker pool of every server.
	serveWorkers = 2
	// maxConns caps the generator's connections per server.
	maxConns = 2
	// closedOutstanding is the closed loop's number of requests in flight.
	closedOutstanding = 2
	// closedBatch is how many closed-loop completions make one sample of
	// wall, CPU and allocation; each is reported per 1000 requests. A batch
	// spans several garbage collections, so batches do not alternate
	// between ones with and without a collection.
	closedBatch = 500
	// openShare is the part of the run spent in the open loop.
	openShare = 0.5
	// figShare is the share of requests that are small figure jobs.
	figShare = 0.02
	// coldShare is the share of requests that must simulate: without it
	// cold simulations would only happen while the Zipf head warms up,
	// and the tail would depend on when the last few keys first appear.
	coldShare = 0.03
	// coldHorizon is the window (Mcycles) the cold jobs' single PRC
	// failure is drawn from: inside their 4-5 Mcycle runs.
	coldHorizon = 2.0
	// zipfS is the skew of the key popularity.
	zipfS = 1.1
)

// offeredRate is the open loop's fixed rate (requests per second) per
// node count: about half the closed-loop capacity measured on a 2-CPU host
// under heavy VM steal. Three nodes share the same two CPUs with six
// workers, replication and redirects.
var offeredRate = map[int]float64{1: 300, 3: 200}

// closedRate sizes the closed loop: it sends a fixed number of requests,
// about what a 2-CPU host completes in the closed loop's share of the run,
// so every run serves the same requests from the same state whatever the
// host's speed.
var closedRate = map[int]float64{1: 1200, 3: 650}

// keySpace is the fixed set of distinct jobs the serving workloads draw
// from: sim jobs over two small H.264 workloads and one small phased
// workload, across a fabric lattice and four policies, then two small
// figures (last).
func keySpace() (specs []api.JobSpec, nSim int) {
	ws := []api.WorkloadSpec{
		{Frames: 2, Seed: 1},
		{Frames: 3, Seed: 2},
		{Seed: 3, Phased: &api.PhasedSpec{Blocks: 2, Kernels: 2, Rounds: 6, Divergence: 0.5}},
	}
	for _, w := range ws {
		for prc := 0; prc <= 4; prc++ {
			for cg := 0; cg <= 3; cg++ {
				if prc == 0 && cg == 0 {
					continue
				}
				for _, p := range []string{"mrts", "rispp", "morpheus", "offline"} {
					specs = append(specs, api.JobSpec{Type: api.JobSim, Workload: w, PRC: prc, CG: cg, Policy: p})
				}
			}
		}
	}
	nSim = len(specs)
	specs = append(specs,
		api.JobSpec{Type: api.JobFig, Workload: ws[0], Fig: "10", MaxPRC: 1, MaxCG: 1},
		api.JobSpec{Type: api.JobFig, Workload: ws[1], Fig: "8", MaxPRC: 1, MaxCG: 1},
	)
	return specs, nSim
}

// keySequence draws n requests: Zipf-distributed sim keys, a share of figure jobs, and a share of cold jobs — a sim
// job under a fault scenario with a fresh seed, which no cache can
// answer — appended to specs as they are drawn. It returns the grown
// specs and the key index of each request.
func keySequence(keySeed uint64, n int, specs []api.JobSpec, nSim int) ([]api.JobSpec, []int) {
	// Popularity is part of the fixed key space (so every seed sends the
	// same share of traffic to each cluster owner); the seed draws.
	perm := rand.New(rand.NewSource(1)).Perm(nSim)
	rng := rand.New(rand.NewSource(int64(keySeed)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(nSim-1))
	nFixed := len(specs)
	out := make([]int, n)
	for i := range out {
		switch u := rng.Float64(); {
		case u < figShare:
			out[i] = nSim + rng.Intn(nFixed-nSim)
		case u < figShare+coldShare:
			specs = append(specs, api.JobSpec{
				Type: api.JobSim, Workload: specs[0].Workload, PRC: 2, CG: 2, Policy: "mrts",
				Faults: &api.FaultSpec{Seed: uint64(rng.Int63()) + 1, FailPRC: 1, HorizonMCycles: coldHorizon},
			})
			out[i] = len(specs) - 1
		default:
			out[i] = perm[z.Uint64()]
		}
	}
	return specs, out
}

// rtKey marks a request whose HTTP round trips are recorded as spans.
type rtKey struct{}

// roundTripper sits under the generator's client: it counts redirects and
// overload answers and, for traced requests, records one span per round
// trip.
type roundTripper struct {
	base      http.RoundTripper
	tr        *tracer
	redirects atomic.Int64
	overloads atomic.Int64
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	switch resp.StatusCode {
	case http.StatusTemporaryRedirect:
		rt.redirects.Add(1)
	case http.StatusServiceUnavailable, http.StatusTooManyRequests:
		rt.overloads.Add(1)
	}
	if parent, ok := req.Context().Value(rtKey{}).(int64); ok && rt.tr != nil {
		rt.tr.add(0, parent, fmt.Sprintf("http.%s %d", req.Method, resp.StatusCode), req.URL.Path, t0, time.Now())
	}
	return resp, nil
}

// servingEnv is one set-up of the serving system: the servers (wrapped in
// cluster nodes when there are several), their listeners and the
// generator's client.
type servingEnv struct {
	dir       string
	servers   []*service.Server
	nodes     []*cluster.Node
	webs      []*httptest.Server
	urls      []string
	rt        *roundTripper
	transport *http.Transport
	submit    func(context.Context, api.JobSpec) (string, error)
	get       func(context.Context, string) (*api.JobStatus, error)
}

// swapHandler lets a listener exist (and be named in the member list)
// before the node that will answer on it.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.h.Load()
	if h == nil {
		http.Error(w, "starting", http.StatusServiceUnavailable)
		return
	}
	(*h).ServeHTTP(w, r)
}

func startServing(dir string, nodes int, warm []api.JobSpec) (*servingEnv, error) {
	env := &servingEnv{dir: dir}
	ok := false
	defer func() {
		if !ok {
			env.close()
		}
	}()
	ids := []string{"a", "b", "c"}[:nodes]
	var members []cluster.Member
	swaps := make([]*swapHandler, nodes)
	for i, id := range ids {
		swaps[i] = &swapHandler{}
		web := httptest.NewServer(swaps[i])
		env.webs = append(env.webs, web)
		env.urls = append(env.urls, web.URL)
		members = append(members, cluster.Member{ID: id, Addr: web.URL})
	}
	for i, id := range ids {
		j, err := journal.Open(filepath.Join(dir, id, "journal"))
		if err != nil {
			return nil, err
		}
		opts := service.Options{Workers: serveWorkers, Journal: j}
		if nodes > 1 {
			opts.Node = id
		}
		srv := service.New(opts)
		env.servers = append(env.servers, srv)
		h := srv.Handler()
		if nodes > 1 {
			n, err := cluster.New(cluster.Config{Self: id, Members: members, Dir: filepath.Join(dir, id)}, srv)
			if err != nil {
				return nil, err
			}
			env.nodes = append(env.nodes, n)
			h = n.Handler()
		}
		swaps[i].h.Store(&h)
	}
	if err := env.warm(ids, warm); err != nil {
		return nil, err
	}
	env.transport = &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}
	env.rt = &roundTripper{base: env.transport}
	hc := &http.Client{Transport: env.rt, Timeout: 30 * time.Second}
	retry := client.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond}
	if nodes == 1 {
		c := client.New(env.urls[0])
		c.HTTPClient, c.Retry = hc, retry
		env.submit, env.get = c.Submit, c.Job
	} else {
		c := client.NewCluster(env.urls)
		c.HTTPClient, c.Retry = hc, retry
		env.submit, env.get = c.Submit, c.Job
	}
	// Open the generator's connections before anything is timed.
	var wg sync.WaitGroup
	errs := make(chan error, nodes*maxConns)
	for _, u := range env.urls {
		for i := 0; i < maxConns; i++ {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				resp, err := hc.Get(u + "/healthz")
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}(u)
		}
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, err
	}
	ok = true
	return env, nil
}

// warm fills the caches the timed phase relies on: every server's workload
// cache, and the result cache of each fixed key's owner (every key on a
// single server), so the open loop is the same mix of cache hits, figure
// jobs and cold jobs from its first request to its last.
func (env *servingEnv) warm(ids []string, specs []api.JobSpec) error {
	ctx := exp.WithWorkers(context.Background(), serveWorkers)
	built := map[string]bool{}
	for _, spec := range specs {
		wkey := fmt.Sprintf("%+v", spec.Workload.Options().Canonical())
		if built[wkey] {
			continue
		}
		built[wkey] = true
		for _, srv := range env.servers {
			eval, _ := srv.Evaluator(spec.Workload.Options())
			if _, err := eval(ctx, arch.Config{}, exp.PolicyRISC); err != nil {
				return err
			}
		}
	}
	_, err := exp.ParMap(ctx, len(specs), func(ctx context.Context, i int) (struct{}, error) {
		spec := specs[i]
		srv := env.servers[0]
		if len(env.nodes) > 0 {
			// Every member is up by the time traffic starts, though the
			// probes may not have said so yet.
			owner := env.nodes[0].Ring().Owner(cluster.Fingerprint(spec), func(string) bool { return true })
			for j, id := range ids {
				if id == owner {
					srv = env.servers[j]
				}
			}
		}
		eval, _ := srv.Evaluator(spec.Workload.Options())
		var err error
		switch {
		case spec.Type == api.JobFig && spec.Fig == "8":
			_, err = exp.Fig8(ctx, eval, spec.MaxPRC, spec.MaxCG)
		case spec.Type == api.JobFig && spec.Fig == "10":
			_, err = exp.Fig10(ctx, eval, spec.MaxPRC, spec.MaxCG)
		case spec.Type == api.JobSim:
			var p exp.Policy
			if p, err = spec.SimPolicy(); err == nil {
				_, err = eval(ctx, arch.Config{NPRC: spec.PRC, NCG: spec.CG}, p)
			}
		default:
			err = fmt.Errorf("no warm-up for %s job %q", spec.Type, spec.Fig)
		}
		return struct{}{}, err
	})
	return err
}

func (env *servingEnv) close() {
	for _, n := range env.nodes {
		n.Close()
	}
	for _, s := range env.servers {
		s.Close()
	}
	for _, w := range env.webs {
		w.Close()
	}
	if env.transport != nil {
		env.transport.CloseIdleConnections()
	}
	os.RemoveAll(env.dir)
}

// await blocks until the job is terminal, on whichever server holds it:
// completion is the in-process Job.Done channel, never a poll of the API.
// In a cluster a steal can move a queued job to another node, so the
// holder is re-checked every few milliseconds while waiting.
func (env *servingEnv) await(ctx context.Context, id string) (*service.Job, error) {
	for {
		var job *service.Job
		var holder *service.Server
		for _, s := range env.servers {
			if j, ok := s.Job(id); ok {
				job, holder = j, s
				break
			}
		}
		if job == nil {
			select {
			case <-ctx.Done():
				return nil, fmt.Errorf("job %s: %w", id, ctx.Err())
			case <-time.After(200 * time.Microsecond):
				continue
			}
		}
		if len(env.servers) == 1 {
			select {
			case <-job.Done():
				return job, nil
			case <-ctx.Done():
				return nil, fmt.Errorf("job %s: %w", id, ctx.Err())
			}
		}
		t := time.NewTicker(2 * time.Millisecond)
		for moved := false; !moved; {
			select {
			case <-job.Done():
				t.Stop()
				return job, nil
			case <-ctx.Done():
				t.Stop()
				return nil, fmt.Errorf("job %s: %w", id, ctx.Err())
			case <-t.C:
				_, still := holder.Job(id)
				moved = !still
			}
		}
		t.Stop()
	}
}

// scrape sums the named counters of every server's /metrics page.
func (env *servingEnv) scrape(names ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, u := range env.urls {
		resp, err := http.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) != 2 {
				continue
			}
			for _, n := range names {
				if f[0] == n {
					v, err := strconv.ParseFloat(f[1], 64)
					if err == nil {
						out[n] += v
					}
				}
			}
		}
		resp.Body.Close()
	}
	return out, nil
}

// request is one generated request and what happened to it.
type request struct {
	key               int
	traced            bool
	spanID            int64
	due, sent, acked  time.Time
	doneSeen, fetched time.Time
	created, started  time.Time
	finished          time.Time
	digest            string
	hits, misses      int64
	err               error
}

func (r *request) latency() float64 { return r.fetched.Sub(r.due).Seconds() }

// stages are the parts of a request's latency, innermost first: an instant
// covered by several belongs to the first. "other" is what none covers,
// such as the wake-up after Job.Done.
var stages = []struct {
	name     string
	from, to func(*request) time.Time
}{
	{"exec", func(r *request) time.Time { return r.started }, func(r *request) time.Time { return r.finished }},
	{"queue", func(r *request) time.Time { return r.created }, func(r *request) time.Time { return r.started }},
	{"submit", func(r *request) time.Time { return r.sent }, func(r *request) time.Time { return r.acked }},
	{"fetch", func(r *request) time.Time { return r.doneSeen }, func(r *request) time.Time { return r.fetched }},
	{"generator", func(r *request) time.Time { return r.due }, func(r *request) time.Time { return r.sent }},
	{"other", func(r *request) time.Time { return r.due }, func(r *request) time.Time { return r.fetched }},
}

// parts partitions the request's latency among the stages.
func (r *request) parts() map[string]float64 {
	ts := []time.Time{r.due, r.fetched}
	for _, st := range stages {
		ts = append(ts, st.from(r), st.to(r))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	out := map[string]float64{}
	for i := 0; i+1 < len(ts); i++ {
		a, b := ts[i], ts[i+1]
		if !a.Before(b) || a.Before(r.due) || b.After(r.fetched) {
			continue
		}
		for _, st := range stages {
			if !a.Before(st.from(r)) && !b.After(st.to(r)) {
				out[st.name] += b.Sub(a).Seconds()
				break
			}
		}
	}
	return out
}

// do submits the request's job, waits for it in-process and fetches the
// result with one GET.
func (env *servingEnv) do(ctx context.Context, spec api.JobSpec, r *request) {
	if r.traced && env.rt.tr != nil {
		r.spanID = env.rt.tr.newID()
		ctx = context.WithValue(ctx, rtKey{}, r.spanID)
	}
	r.sent = time.Now()
	id, err := env.submit(ctx, spec)
	r.acked = time.Now()
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return
	}
	job, err := env.await(ctx, id)
	r.doneSeen = time.Now()
	if err != nil {
		r.err = err
		return
	}
	st, err := env.get(ctx, id)
	r.fetched = time.Now()
	if err != nil {
		r.err = fmt.Errorf("fetch %s: %w", id, err)
		return
	}
	r.created, r.started, r.finished = job.Created, job.Started, job.Finished
	if st.State != api.StateDone || st.Result == nil {
		r.err = fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		return
	}
	r.hits, r.misses = st.Result.CacheHits, st.Result.CacheMisses
	r.digest, r.err = resultDigest(spec, st.Result)
}

// resultDigest is the digest of the part of a result the output check
// compares: the figure text, or the report as the CLIs print it.
func resultDigest(spec api.JobSpec, res *api.JobResult) (string, error) {
	if spec.Type == api.JobFig {
		return digest([]byte(res.Text)), nil
	}
	if res.Report == nil {
		return "", fmt.Errorf("sim result without a report")
	}
	b, err := api.MarshalIndentReport(res.Report)
	return digest(b), err
}

// references recomputes keys directly through the harness, with no
// service, cache or cluster in the path; workloads and RISC references
// are built once per workload.
type references struct {
	builds map[string]*workload.Result
	risc   map[string]*sim.Report
}

func newReferences() *references {
	return &references{builds: map[string]*workload.Result{}, risc: map[string]*sim.Report{}}
}

// of returns the key's reference digest and, for a sim key, its modelled
// speedup over RISC mode.
func (rf *references) of(spec api.JobSpec) (string, float64, error) {
	wkey := fmt.Sprintf("%+v", spec.Workload.Options().Canonical())
	w := rf.builds[wkey]
	if w == nil {
		var err error
		if w, err = workload.Build(spec.Workload.Options()); err != nil {
			return "", 0, err
		}
		rf.builds[wkey] = w
	}
	if spec.Type == api.JobFig {
		var buf bytes.Buffer
		switch spec.Fig {
		case "10":
			r, err := exp.Fig10(context.Background(), exp.DirectEvaluator(w), spec.MaxPRC, spec.MaxCG)
			if err != nil {
				return "", 0, err
			}
			r.Render(&buf)
		case "8":
			r, err := exp.Fig8(context.Background(), exp.DirectEvaluator(w), spec.MaxPRC, spec.MaxCG)
			if err != nil {
				return "", 0, err
			}
			r.Render(&buf)
		default:
			return "", 0, fmt.Errorf("no reference for fig %q", spec.Fig)
		}
		return digest(buf.Bytes()), 0, nil
	}
	p, err := spec.SimPolicy()
	if err != nil {
		return "", 0, err
	}
	ref := rf.risc[wkey]
	if ref == nil {
		if ref, err = exp.RunPoint(nil, w, arch.Config{}, exp.PolicyRISC); err != nil {
			return "", 0, err
		}
		rf.risc[wkey] = ref
	}
	// A job that names its fault horizon runs exactly the scenario it
	// spells; the RISC reference stays fault-free.
	var seed uint64
	if spec.Faults != nil {
		seed = spec.Faults.Seed
	}
	rep, err := exp.RunPointFaults(nil, w, arch.Config{NPRC: spec.PRC, NCG: spec.CG}, p, seed, spec.Faults.Options())
	if err != nil {
		return "", 0, err
	}
	ar := api.NewReport(rep, ref)
	b, err := api.MarshalIndentReport(&ar)
	return digest(b), rep.Speedup(ref), err
}

// setupServing performs the whole set-up setupReps times, keeping the last.
func setupServing(cfg runConfig, nodes int, warm []api.JobSpec, res *result) (*servingEnv, error) {
	var times []float64
	var env *servingEnv
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		dir, err := os.MkdirTemp(cfg.out, "serve-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		env, err = startServing(dir, nodes, warm)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(times))
	return env, nil
}

var scraped = []string{
	"mrts_workload_cache_misses_total", "mrts_journal_records_total",
	"mrts_cluster_replicated_records_total", "mrts_cluster_steals_total",
}

func runServing(cfg runConfig, res *result, nodes int) error {
	specs, nSim := keySpace()
	env, err := setupServing(cfg, nodes, specs, res)
	if err != nil {
		return err
	}
	defer env.close()
	if cfg.traced {
		env.rt.tr = newTracer()
	}
	rate := offeredRate[nodes]
	openSecs := cfg.seconds * openShare
	if cfg.traced {
		openSecs = cfg.seconds
	}
	nOpen := int(openSecs * rate)
	nClosed := max(1, int(cfg.seconds*(1-openShare)*closedRate[nodes]/closedBatch)) * closedBatch
	specs, keys := keySequence(cfg.keySeed, nOpen+nClosed, specs, nSim)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds*float64(time.Second))+60*time.Second)
	defer cancel()

	before, err := env.scrape(scraped...)
	if err != nil {
		return err
	}
	red0, over0 := env.rt.redirects.Load(), env.rt.overloads.Load()

	// Open loop: request i is due at start + i/rate whatever happened to
	// the ones before it; its latency runs from that due time.
	open := make([]request, nOpen)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	var late []float64
	for i := range open {
		r := &open[i]
		r.key, r.traced = keys[i], cfg.traced && i%2 == 1
		r.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		late = append(late, time.Since(r.due).Seconds())
		wg.Add(1)
		go func() {
			defer wg.Done()
			env.do(ctx, specs[r.key], r)
		}()
	}
	wg.Wait()
	after, err := env.scrape(scraped...)
	if err != nil {
		return err
	}

	// Closed loop: closedOutstanding clients, each sending its next request
	// when the previous result is in hand.
	var closed []request
	var per costs
	if !cfg.traced {
		closed = env.closedLoop(ctx, specs, keys[nOpen:], &per)
	}

	all := append(append([]request(nil), open...), closed...)
	speedup := checkServing(specs, all, res)
	var lat []float64
	for i := range open {
		if open[i].err == nil {
			lat = append(lat, open[i].latency())
		}
	}
	lateMax := quantile(late, 1)
	lateP99 := quantile(late, 0.99)
	res.diag = map[string]any{
		"offered_rate": rate, "open_requests": nOpen,
		"gen_late_max_s": round(lateMax), "gen_late_p99_s": round(lateP99),
		"gen_behind": lateP99 > 1/rate,
	}
	if lateP99 > 1/rate {
		res.note("WARNING: the generator fell behind its schedule (p99 lateness %s > interval %s); the run is kept", fmtDur(lateP99), fmtDur(1/rate))
	}
	if cfg.traced {
		return servingLayers(cfg, env, nodes, open, before, after, env.rt.redirects.Load()-red0, env.rt.overloads.Load()-over0, res)
	}
	res.set("wall_s", per.median(func(c costs) []float64 { return c.wall }))
	res.set("cpu_s", per.median(func(c costs) []float64 { return c.cpu }))
	res.set("alloc_mb", per.median(func(c costs) []float64 { return c.alloc }))
	res.diag["quiet_samples"] = quietShare(per)
	res.set("p50_s", quantile(lat, 0.5))
	res.note("open-loop p99 %s over %d requests: not a metric, since on a small shared host it is set by stalls outside the program", fmtDur(quantile(lat, 0.99)), len(lat))
	res.set("speedup_x", speedup)
	res.note("%s: open loop %d requests at %.0f/s (p50 from due time to verified result), then closed loop %d requests with %d outstanding: %.0f jobs/s",
		cfg.workload, nOpen, rate, len(closed), closedOutstanding, 1000/res.metrics["wall_s"])
	res.note("wall_s, cpu_s and alloc_mb are per 1000 closed-loop requests: median of the %s batches of %d that lost at most %.0f%% of the host's CPU time to VM steal (or the half that lost least)",
		quietShare(per), closedBatch, 100*maxSteal)
	return nil
}

// closedLoop sends every key, with closedOutstanding clients drawing keys
// in order, and samples wall, CPU and allocation every closedBatch
// completions.
func (env *servingEnv) closedLoop(ctx context.Context, specs []api.JobSpec, keys []int, per *costs) []request {
	var mu sync.Mutex
	var done []request
	next := 0
	last := sampleUsage()
	var wg sync.WaitGroup
	for c := 0; c < closedOutstanding; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(keys) {
					mu.Unlock()
					return
				}
				r := request{key: keys[next]}
				next++
				mu.Unlock()
				r.due = time.Now()
				env.do(ctx, specs[r.key], &r)
				mu.Lock()
				done = append(done, r)
				if len(done)%closedBatch == 0 {
					now := sampleUsage()
					per.add(last, now, 1000/closedBatch)
					last = now
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done
}

// checkServing counts failed requests and recomputes every distinct key
// directly, comparing each result's bytes with the reference. Untimed. It
// returns the mean modelled mRTS speedup over RISC mode of the key
// space's mRTS sim keys.
func checkServing(specs []api.JobSpec, reqs []request, res *result) float64 {
	rf := newReferences()
	refs := map[int]string{}
	for i := range reqs {
		r := &reqs[i]
		res.attempted++
		if r.err != nil {
			res.fail("request for key %d: %v", r.key, r.err)
			continue
		}
		want, ok := refs[r.key]
		if !ok {
			var err error
			if want, _, err = rf.of(specs[r.key]); err != nil {
				res.fail("reference for key %d: %v", r.key, err)
				continue
			}
			refs[r.key] = want
		}
		if r.digest != want {
			s := specs[r.key]
			res.fail("key %d (%s %s %dx%d %s): result differs from the direct reference", r.key, s.Type, s.Fig, s.PRC, s.CG, s.Policy)
		}
	}
	res.note("output check: %d distinct keys recomputed directly", len(refs))
	var speedups []float64
	for _, s := range specs {
		if s.Type == api.JobSim && s.Policy == "mrts" && s.Faults == nil {
			if _, sp, err := rf.of(s); err == nil {
				speedups = append(speedups, sp)
			}
		}
	}
	return mean(speedups)
}

func servingLayers(cfg runConfig, env *servingEnv, nodes int, open []request, before, after map[string]float64, redirects, overloads int64, res *result) error {
	var submit, queue, exec, fetch, plain, traced []float64
	var hits, lookups int64
	jobs := 0
	for i := range open {
		r := &open[i]
		if r.err != nil {
			continue
		}
		jobs++
		submit = append(submit, r.acked.Sub(r.sent).Seconds())
		queue = append(queue, r.started.Sub(r.created).Seconds())
		exec = append(exec, r.finished.Sub(r.started).Seconds())
		fetch = append(fetch, r.fetched.Sub(r.doneSeen).Seconds())
		hits += r.hits
		lookups += r.hits + r.misses
		if r.traced {
			traced = append(traced, r.latency())
		} else {
			plain = append(plain, r.latency())
		}
	}
	if jobs == 0 {
		return fmt.Errorf("no request completed")
	}
	d := func(n string) float64 { return after[n] - before[n] }
	if nodes > 1 {
		res.set("cluster.submit_s.p50", quantile(submit, 0.5))
		res.set("cluster.submit_s.p99", quantile(submit, 0.99))
		res.set("cluster.redirects_per_job", float64(redirects)/float64(jobs))
		res.set("cluster.replicated_per_job", d("mrts_cluster_replicated_records_total")/float64(jobs))
		res.set("cluster.steals", d("mrts_cluster_steals_total"))
	}
	res.set("service.queue_s.p50", quantile(queue, 0.5))
	res.set("service.queue_s.p99", quantile(queue, 0.99))
	res.set("service.exec_s.p50", quantile(exec, 0.5))
	res.set("service.exec_s.p99", quantile(exec, 0.99))
	res.set("service.fetch_s.p50", quantile(fetch, 0.5))
	res.set("service.cache_hit_ratio", ratio(hits, lookups))
	res.set("service.workload_builds", d("mrts_workload_cache_misses_total"))
	res.set("journal.records_per_job", d("mrts_journal_records_total")/float64(jobs))
	res.set("client.retries", float64(overloads))
	res.set("trace_overhead_frac", median(traced)/median(plain)-1)

	// The median request's parts: each request's latency is partitioned
	// among the stages occupying it (server-side stages first, since the
	// worker may start a job before its 202 reaches the client), for the
	// requests in the middle tenth of the latency distribution.
	idx := make([]int, 0, jobs)
	for i := range open {
		if open[i].err == nil {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return open[idx[a]].latency() < open[idx[b]].latency() })
	lo, hi := len(idx)*45/100, max(len(idx)*55/100, len(idx)*45/100+1)
	band := map[string][]float64{}
	var fr []float64
	for _, i := range idx[lo:hi] {
		parts := open[i].parts()
		var named float64
		for _, st := range stages {
			band[st.name] = append(band[st.name], parts[st.name])
			if st.name != "other" {
				named += parts[st.name]
			}
		}
		fr = append(fr, named/open[i].latency())
	}
	res.set("layer_sum_frac", median(fr))
	var desc []string
	for _, st := range stages {
		desc = append(desc, fmt.Sprintf("%s %s", st.name, fmtDur(median(band[st.name]))))
	}
	res.note("median request (%d requests in the 45-55%% band), latency split by stage: %s; named stages / latency %.3f",
		hi-lo, strings.Join(desc, ", "), median(fr))
	res.note("%d requests at %.0f/s; every other one traced; result-cache hits %d/%d; redirects %d; 503/429 answers %d",
		jobs, offeredRate[nodes], hits, lookups, redirects, overloads)
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	tr := env.rt.tr
	for i := range open {
		r := &open[i]
		if !r.traced || r.err != nil {
			continue
		}
		id := tr.add(r.spanID, 0, "request", strconv.Itoa(i), r.due, r.fetched)
		tr.add(0, id, "service.queue", strconv.Itoa(i), r.created, r.started)
		tr.add(0, id, "service.exec", strconv.Itoa(i), r.started, r.finished)
	}
	if err := tr.writeJSONL(path); err != nil {
		return err
	}
	res.note("spans: %s (%d spans)", path, len(tr.spans))
	return nil
}
