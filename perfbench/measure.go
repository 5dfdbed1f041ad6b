package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// totalAllocMB is the cumulative heap allocation of the process in MB.
func totalAllocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// usage is one sample of the three per-repetition costs and of the VM
// steal so far.
type usage struct {
	wall    time.Time
	cpu     float64
	allocMB float64
	steal   int64 // jiffies
}

func sampleUsage() usage {
	return usage{wall: time.Now(), cpu: cpuSeconds(), allocMB: totalAllocMB(), steal: stealJiffies()}
}

// maxSteal is the share of the host's CPU time the hypervisor may give to
// other tenants during a sample before the sample is left out of the
// medians: such a repetition measures the host more than the program, and
// its CPU time is inflated too, by the caches the other tenants evicted.
const maxSteal = 0.02

// costs accumulates the wall, CPU and allocation cost of each repetition
// of one input of the workload's pool, with the share of the host's CPU
// time lost to VM steal during it.
type costs struct{ wall, cpu, alloc, steal []float64 }

func (c *costs) add(from, to usage, scale float64) {
	wall := to.wall.Sub(from.wall).Seconds()
	c.wall = append(c.wall, wall*scale)
	c.cpu = append(c.cpu, (to.cpu-from.cpu)*scale)
	c.alloc = append(c.alloc, (to.allocMB-from.allocMB)*scale)
	c.steal = append(c.steal, float64(to.steal-from.steal)/userHZ/(wall*float64(runtime.NumCPU())))
}

// quiet is the indices of the samples the medians use: those that lost at
// most maxSteal of the host's CPU time to VM steal or, when that leaves
// fewer than half of them, the half that lost least.
func (c costs) quiet() []int {
	idx := make([]int, len(c.steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return c.steal[idx[a]] < c.steal[idx[b]] })
	n := sort.Search(len(idx), func(i int) bool { return c.steal[idx[i]] > maxSteal })
	return idx[:max(n, (len(idx)+1)/2)]
}

// median is the median of pick(c) over the quiet samples.
func (c costs) median(pick func(costs) []float64) float64 {
	xs := pick(c)
	var q []float64
	for _, i := range c.quiet() {
		q = append(q, xs[i])
	}
	return median(q)
}

// quietShare renders how many of the pool's samples the medians use.
func quietShare(pool ...costs) string {
	var used, all int
	for _, c := range pool {
		used += len(c.quiet())
		all += len(c.wall)
	}
	return fmt.Sprintf("%d/%d", used, all)
}

// poolMedian is the mean over the pool's inputs of each input's median
// quiet repetition: the median keeps a burst of VM steal inside one
// repetition out of the figure, and the mean over several seed-derived
// inputs keeps one unusually heavy input from moving the whole run.
func poolMedian(pool []costs, pick func(costs) []float64) float64 {
	var ms []float64
	for _, c := range pool {
		if len(c.wall) > 0 {
			ms = append(ms, c.median(pick))
		}
	}
	return mean(ms)
}

// noise is what the machine did to a run: it is printed beside the result
// and never folded into the metrics.
type noise struct {
	start     time.Time
	stealJiff int64
}

func startNoise() noise { return noise{start: time.Now(), stealJiff: stealJiffies()} }

// userHZ is the tick rate of the times in /proc/stat.
const userHZ = 100

// stealJiffies reads the cumulative VM steal time of all CPUs from
// /proc/stat, in USER_HZ ticks (0 when unavailable, so no sample is left
// out for it).
func stealJiffies() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// report renders the diagnostics of the run so far.
func (n noise) report() map[string]any {
	steal := float64(stealJiffies()-n.stealJiff) / userHZ
	return map[string]any{
		"elapsed_s":  round(time.Since(n.start).Seconds()),
		"steal_s":    steal,
		"loadavg":    loadAvg(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

func round(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func fmtDur(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2fms", s*1e3)
	default:
		return fmt.Sprintf("%.1fµs", s*1e6)
	}
}
