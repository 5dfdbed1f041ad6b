// Command mrts-bench maintains BENCH_BASELINE.json, the committed
// performance baseline of the selection fast path, and checks fresh
// benchmark runs against it.
//
//	go run ./cmd/mrts-bench -write   # refresh the committed baseline
//	go run ./cmd/mrts-bench -check   # CI: fail on gross regressions
//
// The check is deliberately coarse — it fails only on >2x ns/op or
// allocs/op regressions — so it survives noisy shared CI runners while
// still catching accidental "reintroduced the allocation storm" or
// "quadratic loop snuck back in" classes of regression.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// defaultPattern selects the fast, deterministic micro/meso benches of the
// selection fast path; the figure-level benches are too slow and noisy for
// a CI guard.
const defaultPattern = "BenchmarkProfitFunction$|BenchmarkGreedySelection$|BenchmarkOptimalSelection$|" +
	"BenchmarkTriggerSelection$|BenchmarkSelectionObserved$|BenchmarkGreedyIncremental|" +
	"BenchmarkSelectorScalability|BenchmarkOptimalScalability|BenchmarkServiceThroughput$|" +
	"BenchmarkSweepWallclock|BenchmarkPhasedPrediction"

type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type baseline struct {
	Comment    string             `json:"_comment"`
	Pattern    string             `json:"pattern"`
	Benchtime  string             `json:"benchtime"`
	Benchmarks map[string]metrics `json:"benchmarks"`
}

func main() {
	var (
		write     = flag.Bool("write", false, "run the benchmarks and (re)write the baseline file")
		check     = flag.Bool("check", false, "run the benchmarks and compare against the baseline file")
		file      = flag.String("baseline", "BENCH_BASELINE.json", "baseline file path")
		pattern   = flag.String("bench", defaultPattern, "benchmark pattern to run")
		benchtime = flag.String("benchtime", "100ms", "go test -benchtime value (durations let go test pick a stable iteration count per bench)")
		factor    = flag.Float64("factor", 2.0, "failure threshold: fresh > factor * baseline")
	)
	flag.Parse()
	if *write == *check {
		fatal(fmt.Errorf("exactly one of -write or -check is required"))
	}

	fresh, err := runBenchmarks(*pattern, *benchtime)
	if err != nil {
		fatal(err)
	}
	if len(fresh) == 0 {
		fatal(fmt.Errorf("pattern %q matched no benchmarks", *pattern))
	}

	if *write {
		b := baseline{
			Comment: "Benchmark baseline for the CI regression guard; regenerate with: go run ./cmd/mrts-bench -write " +
				"(numbers are machine-dependent — refresh on the machine class CI uses)",
			Pattern:    *pattern,
			Benchtime:  *benchtime,
			Benchmarks: fresh,
		}
		out, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*file, append(out, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("mrts-bench: wrote %d benchmarks to %s\n", len(fresh), *file)
		return
	}

	raw, err := os.ReadFile(*file)
	if err != nil {
		fatal(fmt.Errorf("%w (generate it with: go run ./cmd/mrts-bench -write)", err))
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("parse %s: %w", *file, err))
	}

	failures := 0
	for name, want := range base.Benchmarks {
		got, ok := fresh[name]
		if !ok {
			fmt.Printf("FAIL %s: in baseline but not produced by this run — renamed or deleted? "+
				"regenerate with: go run ./cmd/mrts-bench -write\n", name)
			failures++
			continue
		}
		// 100 ns of absolute slack so sub-microsecond benches are not
		// tripped by timer granularity on slow shared runners.
		if want.NsPerOp > 0 && got.NsPerOp > *factor*want.NsPerOp+100 {
			fmt.Printf("FAIL %s: %.1f ns/op vs baseline %.1f (>%.1fx)\n", name, got.NsPerOp, want.NsPerOp, *factor)
			failures++
		}
		// +1 alloc of slack so 0->1 or 1->2 jitter on tiny counts does
		// not trip the 2x rule.
		if got.AllocsPerOp > *factor*want.AllocsPerOp+1 {
			fmt.Printf("FAIL %s: %.0f allocs/op vs baseline %.0f (>%.1fx+1)\n", name, got.AllocsPerOp, want.AllocsPerOp, *factor)
			failures++
		}
	}
	for name := range fresh {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Printf("note: %s has no baseline entry (add it with: go run ./cmd/mrts-bench -write)\n", name)
		}
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d benchmark regression(s) against %s", failures, *file))
	}
	fmt.Printf("mrts-bench: %d benchmarks within %.1fx of %s\n", len(base.Benchmarks), *factor, *file)
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkGreedySelection-4   1000   6192 ns/op   224 B/op   3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

func runBenchmarks(pattern, benchtime string) (map[string]metrics, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-benchtime", benchtime, "-count", "1", ".")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	results := make(map[string]metrics)
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		mt := metrics{}
		fields := strings.Fields(rest)
		// Fields come in "value unit" pairs; custom metrics (hit-rate,
		// nodes, saved-frac) are skipped.
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q in line %q: %w", fields[i], line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				mt.NsPerOp = v
			case "B/op":
				mt.BPerOp = v
			case "allocs/op":
				mt.AllocsPerOp = v
			}
		}
		results[name] = mt
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mrts-bench:", err)
	os.Exit(1)
}
