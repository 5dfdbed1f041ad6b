// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed time, checks every output it produced,
// and prints each metric by name and unit; the last line of its standard
// output is one JSON object with the result.
//
//	go build -o perfbench . && ./perfbench -workload figs -seed 1 -seconds 20 -trace 0
//
// Workloads: figs (cold `mrts-sweep -fig all`), phased (`mrts-sim -phased`
// per MPU predictor), serve (one in-process mrts-serve under an open and a
// closed loop) and cluster3 (the same traffic through three cluster
// nodes). -trace 1 makes the separate traced run that splits host time by
// layer and writes its spans as JSONL.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// setupReps is how many times a run performs its set-up; setup_s is the
// median.
const setupReps = 3

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit, in print order. Every run prints all of them: an untraced run the
// end-to-end set, a traced run the per-layer set (0 where the workload
// does not reach the layer).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"alloc_mb", "MB"},
	{"p50_s", "s"}, {"speedup_x", "x"},
}

var perLayer = []metricDef{
	{"workload.build_s", "s"}, {"trace.merge_s", "s"},
	{"exp.point_s.p50", "s"}, {"exp.point_s.p99", "s"}, {"exp.pool_util", "ratio"},
	{"batch.point_hit_ratio", "ratio"}, {"batch.seed_hit_ratio", "ratio"},
	{"sim.self_s", "s"}, {"sim.executions", "count"}, {"sim.ns_per_exec", "ns"},
	{"core.trigger_s", "s"}, {"core.execute_s", "s"}, {"core.block_end_s", "s"},
	{"selector.evaluations", "count"}, {"selector.cache_hit_ratio", "ratio"}, {"selector.shared_hit_ratio", "ratio"},
	{"reconfig.evictions", "count"},
	{"service.queue_s.p50", "s"}, {"service.queue_s.p99", "s"},
	{"service.exec_s.p50", "s"}, {"service.exec_s.p99", "s"},
	{"service.fetch_s.p50", "s"}, {"service.cache_hit_ratio", "ratio"}, {"service.workload_builds", "count"},
	{"journal.records_per_job", "ratio"},
	{"cluster.submit_s.p50", "s"}, {"cluster.submit_s.p99", "s"},
	{"cluster.redirects_per_job", "ratio"}, {"cluster.replicated_per_job", "ratio"}, {"cluster.steals", "count"},
	{"client.retries", "count"},
	{"trace_overhead_frac", "ratio"}, {"layer_sum_frac", "ratio"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what one run is asked to do.
type runConfig struct {
	workload string
	seed     uint64
	keySeed  uint64 // serving key sequence
	seconds  float64
	traced   bool
	out      string            // directory for spans and temporary files
	figs     map[string]string // reference digests by video seed
}

// result collects one run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	metrics           map[string]float64
	notes             []string
	diag              map[string]any
}

// set records a metric's value; its unit comes from the metric tables.
func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps the first few reasons.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(runConfig, *result) error{
	"figs":     runFigs,
	"phased":   runPhased,
	"serve":    func(c runConfig, r *result) error { return runServing(c, r, 1) },
	"cluster3": func(c runConfig, r *result) error { return runServing(c, r, 3) },
}

// run executes one workload and fills in every metric of the run's kind.
func run(cfg runConfig) (*result, error) {
	f, ok := workloads[cfg.workload]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", cfg.workload, strings.Join(names, ", "))
	}
	if err := os.MkdirAll(filepath.Join(cfg.out, "spans"), 0o755); err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}}
	nz := startNoise()
	if err := f(cfg, res); err != nil {
		return nil, err
	}
	if res.diag == nil {
		res.diag = map[string]any{}
	}
	for k, v := range nz.report() {
		res.diag[k] = v
	}
	return res, nil
}

func (cfg runConfig) defs() []metricDef {
	if cfg.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the human-readable report and, last, the JSON result line.
func (res *result) print(w io.Writer, cfg runConfig) error {
	metrics := map[string]metricValue{}
	for _, d := range cfg.defs() {
		v := res.metrics[d.name]
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "note  ", n)
	}
	for _, f := range res.failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	diag, err := json.Marshal(res.diag)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "diag   %s\n", diag)
	out, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload to run: figs, phased, serve, cluster3")
		seed    = flag.Uint64("seed", 1, "workload seed: derives every input of the run")
		keySeed = flag.Int64("key-seed", -1, "seed of the serving key sequence (default: -seed)")
		seconds = flag.Float64("seconds", 20, "how long to measure")
		traced  = flag.Int("trace", 0, "1 makes the traced per-layer run instead of the timed one")
		out     = flag.String("out", ".bench_build", "directory for spans and temporary files")
	)
	flag.Parse()
	cfg := runConfig{
		workload: *wl, seed: *seed, keySeed: *seed, seconds: *seconds,
		traced: *traced == 1, out: *out,
		figs: referenceDigests,
	}
	if *keySeed >= 0 {
		cfg.keySeed = uint64(*keySeed)
	}
	res, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
