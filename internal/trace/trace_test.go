package trace

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mrts/internal/arch"
	"mrts/internal/ise"
)

func testApp(t *testing.T) *ise.Application {
	t.Helper()
	mk := func(id string, lat arch.Cycles) *ise.Kernel {
		return &ise.Kernel{
			ID: ise.KernelID(id), RISCLatency: lat,
			ISEs: []*ise.ISE{{
				ID: id + ".cg1", Kernel: ise.KernelID(id),
				DataPaths: []ise.DataPath{{ID: ise.DataPathID(id + "_cg"), Kind: arch.CG, CGs: 1}},
				Latencies: []arch.Cycles{lat / 2},
			}},
		}
	}
	blk := &ise.FunctionalBlock{ID: "b", Kernels: []*ise.Kernel{mk("w", 150), mk("x", 100), mk("y", 200), mk("z", 50)}}
	app, err := ise.NewApplication("test", blk)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// event is one execution of a merged schedule, with its kernel resolved.
type event struct {
	Kernel ise.KernelID
	Gap    arch.Cycles
}

// events maps a schedule's Order to kernel IDs and gaps.
func events(s *Schedule) []event {
	out := make([]event, len(s.Order))
	for p, k := range s.Order {
		out[p] = event{Kernel: s.Kernels[k], Gap: s.Gap[k]}
	}
	return out
}

func TestMergeCounts(t *testing.T) {
	loads := []KernelLoad{
		{Kernel: "x", E: 3, GapSW: 10},
		{Kernel: "y", E: 2, GapSW: 20},
	}
	evs := events(Merge(loads))
	if len(evs) != 5 {
		t.Fatalf("merged %d events, want 5", len(evs))
	}
	counts := map[ise.KernelID]int{}
	for _, ev := range evs {
		counts[ev.Kernel]++
	}
	if counts["x"] != 3 || counts["y"] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestMergeInterleaves(t *testing.T) {
	// Equal counts interleave strictly by fractional position.
	loads := []KernelLoad{
		{Kernel: "a", E: 4, GapSW: 1},
		{Kernel: "b", E: 4, GapSW: 1},
	}
	evs := events(Merge(loads))
	for i := 0; i < len(evs); i += 2 {
		if evs[i].Kernel == evs[i+1].Kernel {
			t.Fatalf("events %d/%d not interleaved: %v", i, i+1, evs)
		}
	}
}

func TestMergeDeterministic(t *testing.T) {
	loads := []KernelLoad{
		{Kernel: "z", E: 5, GapSW: 1},
		{Kernel: "a", E: 3, GapSW: 2},
		{Kernel: "m", E: 7, GapSW: 3},
	}
	a, b := Merge(loads), Merge(loads)
	if !reflect.DeepEqual(a, b) {
		t.Error("Merge is not deterministic")
	}
	// Order of loads must not matter (it only renumbers the kernels).
	rev := []KernelLoad{loads[2], loads[1], loads[0]}
	c := Merge(rev)
	if !reflect.DeepEqual(events(a), events(c)) {
		t.Error("Merge depends on load order")
	}
}

func TestMergeSkipsZeroLoads(t *testing.T) {
	s := Merge([]KernelLoad{{Kernel: "x", E: 0, GapSW: 1}})
	if len(s.Order) != 0 || len(s.Kernels) != 0 {
		t.Errorf("zero-count load produced %d executions of %d kernels", len(s.Order), len(s.Kernels))
	}
}

func TestRISCTriggersSingleKernel(t *testing.T) {
	app := testApp(t)
	it := &Iteration{
		Block:    "b",
		Prologue: 50,
		Loads:    []KernelLoad{{Kernel: "x", E: 3, GapSW: 10}},
	}
	trig, err := RISCTriggers(app, it)
	if err != nil {
		t.Fatal(err)
	}
	if len(trig) != 1 {
		t.Fatalf("got %d triggers", len(trig))
	}
	tr := trig[0]
	// First execution after prologue + gap.
	if tr.TF != 60 {
		t.Errorf("TF = %d, want 60", tr.TF)
	}
	// Gap between end of one execution and start of next = GapSW.
	if tr.TB != 10 {
		t.Errorf("TB = %d, want 10", tr.TB)
	}
	if tr.E != 3 {
		t.Errorf("E = %d, want 3", tr.E)
	}
}

func TestRISCTriggersInterleaved(t *testing.T) {
	app := testApp(t)
	it := &Iteration{
		Block: "b",
		Loads: []KernelLoad{
			{Kernel: "x", E: 2, GapSW: 10},
			{Kernel: "y", E: 2, GapSW: 10},
		},
	}
	trig, err := RISCTriggers(app, it)
	if err != nil {
		t.Fatal(err)
	}
	byK := map[ise.KernelID]ise.Trigger{}
	for _, tr := range trig {
		byK[tr.Kernel] = tr
	}
	// The wall-clock gap between two x executions includes y's RISC
	// latency (200) and software gaps.
	if byK["x"].TB <= 10 {
		t.Errorf("x TB = %d, should include interleaved y executions", byK["x"].TB)
	}
	if byK["x"].TF >= byK["y"].TF && byK["y"].TF >= byK["x"].TF {
		t.Error("both kernels cannot start at the same instant on one core")
	}
}

func TestRISCTriggersUnknownBlock(t *testing.T) {
	app := testApp(t)
	if _, err := RISCTriggers(app, &Iteration{Block: "nope"}); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestBuildProfileAverages(t *testing.T) {
	app := testApp(t)
	tr := &Trace{
		App: "test",
		Iterations: []Iteration{
			{Block: "b", Seq: 0, Loads: []KernelLoad{{Kernel: "x", E: 10, GapSW: 5}}},
			{Block: "b", Seq: 1, Loads: []KernelLoad{{Kernel: "x", E: 30, GapSW: 5}}},
		},
	}
	if err := tr.BuildProfile(app); err != nil {
		t.Fatal(err)
	}
	prof := tr.Profile["b"]
	if len(prof) != 1 {
		t.Fatalf("profile has %d triggers", len(prof))
	}
	if prof[0].E != 20 {
		t.Errorf("profile E = %d, want 20 (average of 10 and 30)", prof[0].E)
	}
}

func TestValidate(t *testing.T) {
	app := testApp(t)
	good := &Trace{
		App:        "test",
		Iterations: []Iteration{{Block: "b", Loads: []KernelLoad{{Kernel: "x", E: 1}}}},
	}
	if err := good.Validate(app); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}

	bad := &Trace{Iterations: []Iteration{{Block: "zzz"}}}
	if bad.Validate(app) == nil {
		t.Error("unknown block accepted")
	}
	bad = &Trace{Iterations: []Iteration{{Block: "b", Loads: []KernelLoad{{Kernel: "nope", E: 1}}}}}
	if bad.Validate(app) == nil {
		t.Error("unknown kernel accepted")
	}
	bad = &Trace{Iterations: []Iteration{{Block: "b", Loads: []KernelLoad{{Kernel: "x", E: -1}}}}}
	if bad.Validate(app) == nil {
		t.Error("negative load accepted")
	}
	bad = &Trace{Profile: map[string][]ise.Trigger{"zzz": nil}}
	if bad.Validate(app) == nil {
		t.Error("profile for unknown block accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := &Trace{
		App: "test",
		Profile: map[string][]ise.Trigger{
			"b": {{Kernel: "x", E: 5, TF: 10, TB: 20}},
		},
		Iterations: []Iteration{
			{Block: "b", Seq: 0, Prologue: 100, Loads: []KernelLoad{{Kernel: "x", E: 5, GapSW: 3}}},
		},
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n%+v\n%+v", tr, got)
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString("{broken")); err == nil {
		t.Error("garbage decoded")
	}
}

func TestIterationTotalExecutions(t *testing.T) {
	it := Iteration{Loads: []KernelLoad{{Kernel: "x", E: 3}, {Kernel: "y", E: 4}}}
	if it.TotalExecutions() != 7 {
		t.Errorf("TotalExecutions = %d", it.TotalExecutions())
	}
}

// Property: Merge output length always equals the sum of loads, per-kernel
// counts are preserved, and the schedule's per-kernel summary matches a
// brute-force count over its order, for random load sets drawn from a
// fixed seed (logged on failure, so a failure replays).
func TestMergePreservesCountsProperty(t *testing.T) {
	const seed = 20112
	f := func(e1, e2, e3 uint8) bool {
		loads := []KernelLoad{
			{Kernel: "a", E: int64(e1 % 50), GapSW: 1},
			{Kernel: "b", E: int64(e2 % 50), GapSW: 2},
			{Kernel: "c", E: int64(e3 % 50), GapSW: 3},
		}
		s := Merge(loads)
		evs := events(s)
		counts := map[ise.KernelID]int64{}
		for _, ev := range evs {
			counts[ev.Kernel]++
		}
		if want := bruteSchedule(loads, evs); !reflect.DeepEqual(s, want) {
			t.Logf("loads %+v: Schedule %+v, brute force %+v", loads, s, want)
			return false
		}
		return counts["a"] == int64(e1%50) &&
			counts["b"] == int64(e2%50) &&
			counts["c"] == int64(e3%50)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(seed))}
	if err := quick.Check(f, cfg); err != nil {
		t.Errorf("seed %d: %v", seed, err)
	}
}

// bruteSchedule recomputes a Schedule position by position from its
// executions: kernels (and their gaps) are the loads with executions in
// load order, for each kernel every later execution is counted from its
// last one, and every prefix row rescans the order up to its boundary.
func bruteSchedule(loads []KernelLoad, evs []event) *Schedule {
	var order []ise.KernelID
	var gaps []arch.Cycles
	for _, l := range loads {
		if l.E > 0 {
			order = append(order, l.Kernel)
			gaps = append(gaps, l.GapSW)
		}
	}
	n := len(order)
	s := &Schedule{Kernels: order, Gap: gaps, Order: make([]uint8, len(evs)), After: make([]int64, n*n), Prefix: []int32{}}
	for k, id := range order {
		var count int64
		last := -1
		for p, ev := range evs {
			if ev.Kernel == id {
				s.Order[p] = uint8(k)
				count++
				last = p
			}
		}
		s.Count = append(s.Count, count)
		for _, ev := range evs[last+1:] {
			for j, jd := range order {
				if ev.Kernel == jd {
					s.After[k*n+j]++
				}
			}
		}
	}
	for c := 0; ; c++ {
		end := min(c*Stride, len(s.Order))
		for j := range order {
			var cnt int32
			for _, k := range s.Order[:end] {
				if int(k) == j {
					cnt++
				}
			}
			s.Prefix = append(s.Prefix, cnt)
		}
		if end == len(s.Order) {
			return s
		}
	}
}

// rescanMerge is the reference merge: every execution rescans all loads
// and recomputes each one's fractional position.
func rescanMerge(loads []KernelLoad) []event {
	type cursor struct {
		load KernelLoad
		next int64
	}
	var total int64
	var curs []cursor
	for _, l := range loads {
		if l.E > 0 {
			total += l.E
			curs = append(curs, cursor{load: l})
		}
	}
	sort.Slice(curs, func(i, j int) bool { return curs[i].load.Kernel < curs[j].load.Kernel })
	var events []event
	for int64(len(events)) < total {
		best := -1
		var bestPos float64
		for i := range curs {
			c := &curs[i]
			if c.next >= c.load.E {
				continue
			}
			if pos := (float64(c.next) + 0.5) / float64(c.load.E); best < 0 || pos < bestPos {
				best, bestPos = i, pos
			}
		}
		c := &curs[best]
		events = append(events, event{Kernel: c.load.Kernel, Gap: c.load.GapSW})
		c.next++
	}
	return events
}

// mapRISCTriggers is the reference RISCTriggers: per-kernel tracks in a
// map, filled from the merged event list.
func mapRISCTriggers(app *ise.Application, it *Iteration) []ise.Trigger {
	blk := app.Block(it.Block)
	type track struct {
		first, lastEnd, gaps arch.Cycles
		n                    int64
	}
	tracks := map[ise.KernelID]*track{}
	t := it.Prologue
	for _, ev := range rescanMerge(it.Loads) {
		t += ev.Gap
		tr := tracks[ev.Kernel]
		if tr == nil {
			tr = &track{first: t}
			tracks[ev.Kernel] = tr
		} else {
			tr.gaps += t - tr.lastEnd
		}
		tr.n++
		t += blk.Kernel(ev.Kernel).RISCLatency
		tr.lastEnd = t
	}
	out := []ise.Trigger{}
	for _, l := range it.Loads {
		if tr, ok := tracks[l.Kernel]; ok {
			var tb arch.Cycles
			if tr.n > 1 {
				tb = tr.gaps / arch.Cycles(tr.n-1)
			}
			out = append(out, ise.Trigger{Kernel: l.Kernel, E: tr.n, TF: tr.first, TB: tb})
		}
	}
	return out
}

// TestMergeMatchesRescan checks Merge and RISCTriggers against the
// reference implementations on random loads of distinct kernels, including
// zero counts.
func TestMergeMatchesRescan(t *testing.T) {
	app := testApp(t)
	ids := []ise.KernelID{"w", "x", "y", "z"}
	const seed = 31337
	rng := rand.New(rand.NewSource(seed))
	for n := 0; n < 300; n++ {
		var loads []KernelLoad
		for _, i := range rng.Perm(len(ids))[:1+rng.Intn(len(ids))] {
			loads = append(loads, KernelLoad{
				Kernel: ids[i],
				E:      int64(rng.Intn(40)) - 3,
				GapSW:  arch.Cycles(rng.Intn(20)),
			})
		}
		if got, want := Merge(loads), bruteSchedule(loads, rescanMerge(loads)); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, loads %+v: Merge %+v, reference %+v", seed, loads, got, want)
		}
		it := &Iteration{Block: "b", Prologue: arch.Cycles(rng.Intn(100)), Loads: loads}
		got, err := RISCTriggers(app, it)
		if err != nil {
			t.Fatal(err)
		}
		if want := mapRISCTriggers(app, it); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, loads %+v: RISCTriggers %v, reference %v", seed, loads, got, want)
		}
	}
}

// TestMergePrefixRows checks the prefix index at the chunk edges against
// the brute-force schedule: an order shorter than one chunk, exactly one
// and exactly several chunks, one past a chunk, a single kernel and no
// executions at all. Each row count and the last row (Count) are checked
// explicitly too.
func TestMergePrefixRows(t *testing.T) {
	for _, tc := range []struct {
		name   string
		e      []int64
		chunks int
	}{
		{"short", []int64{3, 5}, 1},
		{"one chunk", []int64{Stride / 2, Stride / 2}, 1},
		{"three chunks", []int64{Stride, 2*Stride - 7, 7}, 3},
		{"one past", []int64{Stride, 1}, 2},
		{"single kernel", []int64{2*Stride + 3}, 3},
		{"single kernel, exact", []int64{Stride}, 1},
		{"empty", []int64{0}, 0},
	} {
		var loads []KernelLoad
		for i, e := range tc.e {
			loads = append(loads, KernelLoad{Kernel: ise.KernelID(string(rune('p' + i))), E: e, GapSW: arch.Cycles(i)})
		}
		s := Merge(loads)
		if want := bruteSchedule(loads, events(s)); !reflect.DeepEqual(s, want) {
			t.Errorf("%s: Merge %+v, brute force %+v", tc.name, s, want)
		}
		n := len(s.Kernels)
		if s.Chunks() != tc.chunks || len(s.Prefix) != (tc.chunks+1)*n {
			t.Errorf("%s: %d chunks, %d prefix counts; want %d chunks of %d kernels", tc.name, s.Chunks(), len(s.Prefix), tc.chunks, n)
			continue
		}
		for k := range n {
			if got := s.Prefix[tc.chunks*n+k]; int64(got) != s.Count[k] {
				t.Errorf("%s: last row counts %d executions of kernel %d, want %d", tc.name, got, k, s.Count[k])
			}
		}
	}
}

// TestValidateRejectsUnschedulableLoads checks that a kernel listed twice
// and an iteration of more than maxKernels kernels are invalid input, while
// maxKernels kernels still merge into one-byte indices.
func TestValidateRejectsUnschedulableLoads(t *testing.T) {
	app := testApp(t)
	dup := &Trace{Iterations: []Iteration{{Block: "b", Loads: []KernelLoad{
		{Kernel: "x", E: 2, GapSW: 1}, {Kernel: "y", E: 1}, {Kernel: "x", E: 2, GapSW: 5},
	}}}}
	if err := dup.Validate(app); err == nil || !strings.Contains(err.Error(), `"x" twice`) {
		t.Errorf("duplicate kernel: Validate = %v, want a duplicate error", err)
	}
	if _, err := RISCTriggers(app, &dup.Iterations[0]); err == nil {
		t.Error("RISCTriggers accepted a duplicate kernel")
	}
	huge := &Trace{Iterations: []Iteration{{Block: "b", Loads: []KernelLoad{
		{Kernel: "x", E: math.MaxInt32}, {Kernel: "y", E: math.MaxInt64},
	}}}}
	if err := huge.Validate(app); err == nil || !strings.Contains(err.Error(), "executions") {
		t.Errorf("too many executions: Validate = %v, want an execution-count error", err)
	}

	var kernels []*ise.Kernel
	var loads []KernelLoad
	for i := range maxKernels + 1 {
		id := ise.KernelID(fmt.Sprintf("k%d", i))
		kernels = append(kernels, &ise.Kernel{ID: id, RISCLatency: 10})
		loads = append(loads, KernelLoad{Kernel: id, E: 1, GapSW: 1})
	}
	big, err := ise.NewApplication("big", &ise.FunctionalBlock{ID: "b", Kernels: kernels})
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Iterations: []Iteration{{Block: "b", Loads: loads}}}
	if err := tr.Validate(big); err == nil || !strings.Contains(err.Error(), "257 kernels") {
		t.Errorf("%d kernels: Validate = %v, want a kernel-count error", len(loads), err)
	}
	tr = &Trace{Iterations: []Iteration{{Block: "b", Loads: loads[:maxKernels]}}}
	if err := tr.Validate(big); err != nil {
		t.Fatalf("%d kernels rejected: %v", maxKernels, err)
	}
	s := tr.MergedLoads(0)
	seen := make([]bool, maxKernels)
	for _, k := range s.Order {
		seen[k] = true
	}
	for k, ok := range seen {
		if !ok || s.Count[k] != 1 {
			t.Fatalf("kernel %d: seen %v, count %d in a %d-kernel schedule", k, ok, s.Count[k], maxKernels)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{
		Iterations: []Iteration{
			{Block: "a", Loads: []KernelLoad{{Kernel: "x", E: 3}, {Kernel: "y", E: 4}}},
			{Block: "a", Loads: []KernelLoad{{Kernel: "x", E: 5}}},
			{Block: "b", Loads: []KernelLoad{{Kernel: "z", E: 1}}},
		},
	}
	s := tr.Summarize()
	if s.Iterations != 3 || s.Executions != 13 {
		t.Errorf("summary = %+v", s)
	}
	if s.BlockIterations["a"] != 2 || s.BlockIterations["b"] != 1 {
		t.Errorf("block iterations = %v", s.BlockIterations)
	}
	if s.KernelTotals["x"] != 8 || s.KernelTotals["y"] != 4 || s.KernelTotals["z"] != 1 {
		t.Errorf("kernel totals = %v", s.KernelTotals)
	}
}
