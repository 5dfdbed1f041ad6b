package reconfig

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/obs"
)

// refController is the reconfiguration controller as it was before its
// data paths moved into a slot slice: a map of *slot pointers, eviction
// candidates ordered by sort.Slice. It is kept only as the oracle of
// TestControllerMatchesReference and implements exactly the operations
// that test drives; every method is a copy of the original, condensed
// only by dropping doc comments and inlining the evict and occupiedPRC
// one-liners.
type refController struct {
	cfg                     arch.Config
	reservedPRC, reservedCG int
	now                     arch.Cycles
	paths                   map[ise.DataPathID]*slot
	fgPortEnd, cgPortEnd    arch.Cycles
	monos                   map[ise.KernelID]*monoSlot
	monoEnd                 arch.Cycles
	occPRC, occCG           int
	version                 uint64
	fabric                  *arch.Fabric
	verifier                Verifier
	obsr                    *obs.Recorder
	invalidated             []ise.DataPathID
	stats                   Stats
}

func newRefController(cfg arch.Config) *refController {
	return &refController{
		cfg:    cfg,
		paths:  make(map[ise.DataPathID]*slot),
		monos:  make(map[ise.KernelID]*monoSlot),
		fabric: arch.NewFabric(cfg),
	}
}

func (c *refController) Advance(now arch.Cycles) {
	if now > c.now {
		c.now = now
	}
}

func (c *refController) occupiedCG() int { return c.occCG + len(c.monos) }

func (c *refController) NextReady(now arch.Cycles) arch.Cycles {
	if c.fgPortEnd <= now && c.cgPortEnd <= now && c.monoEnd <= now {
		return Forever
	}
	next := Forever
	for _, s := range c.paths {
		if s.ready > now && s.ready < next {
			next = s.ready
		}
	}
	for _, m := range c.monos {
		if m.ready > now && m.ready < next {
			next = m.ready
		}
	}
	return next
}

func (c *refController) FreePRC() int {
	return c.fabric.AvailablePRC() - c.reservedPRC - c.occPRC
}

func (c *refController) FreeCG() int {
	return c.fabric.AvailableCG() - c.reservedCG - c.occupiedCG()
}

func (c *refController) ReadyTime(id ise.DataPathID) (arch.Cycles, bool) {
	s, ok := c.paths[id]
	if !ok {
		return 0, false
	}
	return s.ready, true
}

func (c *refController) Reserve(prc, cg int) error {
	if prc < 0 || cg < 0 {
		return fmt.Errorf("reconfig: negative reservation %d/%d", prc, cg)
	}
	if prc > c.cfg.NPRC || cg > c.cfg.NCG {
		return fmt.Errorf("reconfig: reservation %d/%d exceeds fabric %d/%d", prc, cg, c.cfg.NPRC, c.cfg.NCG)
	}
	needPRC := prc - c.reservedPRC - c.FreePRC()
	needCG := cg - c.reservedCG - c.FreeCG()
	if needPRC > 0 && c.evictPass(arch.FG, needPRC, false, false) < needPRC {
		return fmt.Errorf("reconfig: cannot reserve %d PRCs: pinned data paths in the way", prc)
	}
	if needCG > 0 && c.evictPass(arch.CG, needCG, false, false) < needCG {
		return fmt.Errorf("reconfig: cannot reserve %d CG-EDPEs: pinned data paths in the way", cg)
	}
	c.reservedPRC, c.reservedCG = prc, cg
	return nil
}

func (c *refController) evictPass(kind arch.FabricKind, units int, pinned, record bool) int {
	var cands []*slot
	for _, s := range c.paths {
		if s.pinned != pinned || s.dp.Kind != kind {
			continue
		}
		cands = append(cands, s)
	}
	sort.Slice(cands, func(i, j int) bool { return refOlder(cands[i], cands[j]) })
	freed := 0
	for _, s := range cands {
		if freed >= units {
			break
		}
		c.removePath(s)
		c.stats.Evictions++
		if record {
			c.stats.FaultEvictions++
			c.invalidated = append(c.invalidated, s.dp.ID)
		}
		if c.obsr != nil {
			detail := "capacity"
			if record {
				detail = "fault"
			}
			c.obsr.Record(obs.Event{
				Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindEvict,
				Path: string(s.dp.ID), Fabric: kind.String(), Detail: detail,
			})
		}
		freed += s.dp.PRCs + s.dp.CGs
	}
	return freed
}

// refOlder is the eviction and migration order: ready time, ties by ID.
func refOlder(a, b *slot) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.dp.ID < b.dp.ID
}

func (c *refController) removePath(s *slot) {
	delete(c.paths, s.dp.ID)
	c.occPRC -= s.dp.PRCs
	c.occCG -= s.dp.CGs
	c.version++
}

func (c *refController) evictOverflow(kind arch.FabricKind) {
	var overflow int
	if kind == arch.FG {
		overflow = c.occPRC + c.reservedPRC - c.fabric.AvailablePRC()
	} else {
		overflow = c.occupiedCG() + c.reservedCG - c.fabric.AvailableCG()
	}
	if overflow <= 0 {
		return
	}
	if kind == arch.CG && len(c.monos) > 0 {
		ids := make([]ise.KernelID, 0, len(c.monos))
		for id := range c.monos {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if overflow <= 0 {
				break
			}
			delete(c.monos, id)
			c.version++
			overflow--
		}
	}
	if overflow > 0 {
		overflow -= c.evictPass(kind, overflow, false, true)
	}
	if overflow > 0 {
		c.evictPass(kind, overflow, true, true)
	}
}

func (c *refController) FailUnit(kind arch.FabricKind, permanent bool) bool {
	if !c.fabric.Fail(kind, permanent) {
		return false
	}
	c.stats.UnitsFailed++
	if c.obsr != nil {
		detail := "transient"
		if permanent {
			detail = "permanent"
		}
		c.obsr.Record(obs.Event{
			Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindUnitFail,
			Fabric: kind.String(), Detail: detail,
		})
	}
	c.evictOverflow(kind)
	return true
}

func (c *refController) RecoverUnit(kind arch.FabricKind) bool {
	if !c.fabric.Recover(kind) {
		return false
	}
	c.stats.UnitsRecovered++
	if c.obsr != nil {
		c.obsr.Record(obs.Event{
			Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindUnitUp,
			Fabric: kind.String(),
		})
	}
	return true
}

func (c *refController) TakeInvalidated() []ise.DataPathID {
	out := c.invalidated
	c.invalidated = nil
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *refController) declareFailed(kind arch.FabricKind) {
	if c.fabric.Fail(kind, true) {
		c.stats.UnitsFailed++
		if c.obsr != nil {
			c.obsr.Record(obs.Event{
				Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindUnitFail,
				Fabric: kind.String(), Detail: "retries exhausted",
			})
		}
		c.evictOverflow(kind)
	}
}

func (c *refController) Request(d ise.DataPath, now arch.Cycles) (arch.Cycles, error) {
	c.Advance(now)
	if s, ok := c.paths[d.ID]; ok {
		s.pinned = true
		return s.ready, nil
	}
	switch d.Kind {
	case arch.FG:
		if need := d.PRCs - c.FreePRC(); need > 0 {
			c.evictPass(arch.FG, need, false, false)
		}
		if d.PRCs > c.FreePRC() {
			return 0, fmt.Errorf("reconfig: no free PRC for data path %q (need %d, free %d)", d.ID, d.PRCs, c.FreePRC())
		}
	case arch.CG:
		if need := d.CGs - c.FreeCG(); need > 0 {
			c.evictPass(arch.CG, need, false, false)
		}
		if d.CGs > c.FreeCG() {
			return 0, fmt.Errorf("reconfig: no free CG-EDPE for data path %q (need %d, free %d)", d.ID, d.CGs, c.FreeCG())
		}
	}
	ready, ok := c.schedule(d, now)
	if !ok {
		c.declareFailed(d.Kind)
		return ready, fmt.Errorf("reconfig: data path %q: %w", d.ID, ErrConfigFailed)
	}
	c.paths[d.ID] = &slot{dp: d, ready: ready, pinned: true}
	c.occPRC += d.PRCs
	c.occCG += d.CGs
	return ready, nil
}

func (c *refController) schedule(d ise.DataPath, now arch.Cycles) (arch.Cycles, bool) {
	dur := d.ReconfigCycles()
	portEnd := &c.cgPortEnd
	busy := &c.stats.CGBusyCycles
	if d.Kind == arch.FG {
		portEnd = &c.fgPortEnd
		busy = &c.stats.FGBusyCycles
		c.stats.FGReconfigs++
	} else {
		c.stats.CGReconfigs++
	}
	start := maxCycles(now, *portEnd)
	for attempt := 1; ; attempt++ {
		end := start + dur
		*busy += dur
		if c.verifier == nil || !c.verifier.Corrupted(d.Kind, end) {
			*portEnd = end
			if c.obsr != nil {
				c.obsr.Record(obs.Event{
					Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindConfig,
					Path: string(d.ID), Fabric: d.Kind.String(), Ready: end, Latency: dur,
				})
			}
			return end, true
		}
		c.stats.CRCFailures++
		if attempt >= MaxConfigAttempts {
			*portEnd = end
			if c.obsr != nil {
				c.obsr.Record(obs.Event{
					Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindRetry,
					Path: string(d.ID), Fabric: d.Kind.String(), Ready: end, Latency: dur,
					Detail: "abandoned: attempts exhausted",
				})
			}
			return end, false
		}
		c.stats.Retries++
		b := configBackoff(dur, attempt)
		c.stats.RetryCycles += b
		if c.obsr != nil {
			c.obsr.Record(obs.Event{
				Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindRetry,
				Path: string(d.ID), Fabric: d.Kind.String(), Ready: end, Latency: b,
				Detail: "CRC failure, re-streaming after backoff",
			})
		}
		start = end + b
	}
}

func (c *refController) CommitSelectionSafe(selected []*ise.ISE, now arch.Cycles) CommitResult {
	c.Advance(now)
	for _, s := range c.paths {
		s.pinned = false
	}
	c.releaseAllMono()
	for _, e := range selected {
		for _, d := range e.DataPaths {
			if s, ok := c.paths[d.ID]; ok {
				s.pinned = true
			}
		}
	}
	done := make([]arch.Cycles, len(selected))
	var skipped []int
	for i, e := range selected {
		var last arch.Cycles = now
		var fail error
		for _, d := range e.DataPaths {
			ready, err := c.Request(d, now)
			if err != nil {
				fail = err
				break
			}
			if ready > last {
				last = ready
			}
		}
		if fail != nil {
			skipped = append(skipped, i)
			continue
		}
		done[i] = last
	}
	return CommitResult{Done: done, Skipped: skipped}
}

func (c *refController) EvictAll() {
	c.stats.Evictions += int64(len(c.paths))
	c.paths = make(map[ise.DataPathID]*slot)
	c.occPRC, c.occCG = 0, 0
	c.version++
	c.releaseAllMono()
}

func (c *refController) AcquireMonoCG(k *ise.Kernel, now arch.Cycles) (arch.Cycles, bool) {
	if !k.MonoCG.Available() {
		return 0, false
	}
	c.Advance(now)
	if m, ok := c.monos[k.ID]; ok {
		return m.ready, true
	}
	if c.FreeCG() < 1 {
		c.evictPass(arch.CG, 1, false, false)
	}
	if c.FreeCG() < 1 {
		return 0, false
	}
	ready := now + k.MonoCG.ReconfigCycles()
	c.monos[k.ID] = &monoSlot{kernel: k.ID, ready: ready}
	c.monoEnd = maxCycles(c.monoEnd, ready)
	c.stats.MonoCGLoads++
	c.stats.CGBusyCycles += k.MonoCG.ReconfigCycles()
	return ready, true
}

func (c *refController) MonoCGReady(id ise.KernelID) (arch.Cycles, bool) {
	m, ok := c.monos[id]
	if !ok {
		return 0, false
	}
	return m.ready, true
}

func (c *refController) ReleaseMonoCG(id ise.KernelID) {
	if _, ok := c.monos[id]; ok {
		delete(c.monos, id)
		c.version++
	}
}

func (c *refController) releaseAllMono() {
	if len(c.monos) == 0 {
		return
	}
	for id := range c.monos {
		delete(c.monos, id)
	}
	c.version++
}

func (c *refController) ConfiguredPaths() []ise.DataPathID {
	var out []ise.DataPathID
	for id, s := range c.paths {
		if s.ready <= c.now {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (c *refController) Repartition(kind arch.FabricKind, capacity, retained int, now arch.Cycles) (int, arch.Cycles, error) {
	var total int
	if kind == arch.FG {
		total = c.cfg.NPRC
	} else {
		total = c.cfg.NCG
	}
	if capacity < 0 || capacity > total {
		return 0, now, fmt.Errorf("reconfig: repartition capacity %d outside fabric of %d", capacity, total)
	}
	if retained < 0 {
		retained = 0
	}
	if retained > capacity {
		retained = capacity
	}
	c.Advance(now)
	if kind == arch.FG {
		c.reservedPRC = total - capacity
	} else {
		c.reservedCG = total - capacity
	}
	c.evictOverflow(kind)
	var survivors []*slot
	occupied := 0
	for _, s := range c.paths {
		if s.dp.Kind != kind {
			continue
		}
		survivors = append(survivors, s)
		occupied += s.dp.PRCs + s.dp.CGs
	}
	move := occupied - retained
	if move <= 0 {
		return 0, now, nil
	}
	sort.Slice(survivors, func(i, j int) bool { return refOlder(survivors[i], survivors[j]) })
	migrated := 0
	last := now
	kept := 0
	for _, s := range survivors {
		units := s.dp.PRCs + s.dp.CGs
		if kept+units <= retained {
			kept += units
			continue
		}
		ready, ok := c.schedule(s.dp, now)
		if !ok {
			c.declareFailed(kind)
			if _, alive := c.paths[s.dp.ID]; alive {
				c.removePath(s)
				c.stats.Evictions++
				c.invalidated = append(c.invalidated, s.dp.ID)
			}
			continue
		}
		s.ready = ready
		c.version++
		c.stats.Migrations++
		c.stats.MigrationCycles += s.dp.ReconfigCycles()
		if ready > last {
			last = ready
		}
		if c.obsr != nil {
			c.obsr.Record(obs.Event{
				Cycle: c.now, Source: obs.SourceReconfig, Kind: obs.KindMigrate,
				Path: string(s.dp.ID), Fabric: kind.String(),
				Ready: ready, Latency: s.dp.ReconfigCycles(),
			})
		}
		migrated++
	}
	return migrated, last, nil
}

// hashVerifier corrupts a deterministic pseudo-random share of the
// configuration attempts, as a function of (kind, completion time) only,
// so two controllers that stream the same attempts see the same verdicts.
type hashVerifier struct{ oneIn uint64 }

func (v hashVerifier) Corrupted(kind arch.FabricKind, at arch.Cycles) bool {
	h := uint64(at)*0x9E3779B97F4A7C15 + uint64(kind)*0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h%v.oneIn == 0
}

// TestControllerMatchesReference drives the slot-slice controller and the
// map-backed reference with the same random operation sequences —
// requests, fault-tolerant commits, reservations, monoCG loads and
// releases, unit failures and recoveries, repartitions and EvictAll, half
// of the sequences under a CRC verifier that corrupts one attempt in five —
// and compares after every step what each operation returned, the
// recorded events (so the eviction order), ConfiguredPaths, NextReady,
// Version, FreePRC/FreeCG, TakeInvalidated, Stats and every data path's
// and monoCG slot's ready time. The sequences come from a fixed seed,
// printed on failure.
func TestControllerMatchesReference(t *testing.T) {
	const seed = 2024
	rng := rand.New(rand.NewSource(seed))
	var dps []ise.DataPath
	for i := 0; i < 10; i++ {
		units := 1 + i%3/2 // 1, 1, 2, 1, 1, 2, ...
		if i%2 == 0 {
			dps = append(dps, ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("fg%d", i)), Kind: arch.FG, PRCs: units})
		} else {
			dps = append(dps, ise.DataPath{ID: ise.DataPathID(fmt.Sprintf("cg%d", i)), Kind: arch.CG, CGs: units})
		}
	}
	var kernels []*ise.Kernel
	for i := 0; i < 3; i++ {
		kernels = append(kernels, &ise.Kernel{
			ID: ise.KernelID(fmt.Sprintf("k%d", i)), RISCLatency: 100,
			MonoCG: ise.MonoCGExt{Latency: 50, Instructions: 8 << i},
		})
	}
	kinds := [2]arch.FabricKind{arch.FG, arch.CG}

	var evictions, ties, faultEvictions, migrations int
	for seq := 0; seq < 300; seq++ {
		cfg := arch.Config{NPRC: rng.Intn(6), NCG: rng.Intn(6)}
		c, err := NewController(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefController(cfg)
		rec, refRec := obs.New(), obs.New()
		c.SetObserver(rec)
		ref.obsr = refRec
		if seq%2 == 1 {
			c.SetVerifier(hashVerifier{oneIn: 5})
			ref.verifier = hashVerifier{oneIn: 5}
		}
		now := arch.Cycles(0)
		for step := 0; step < 60; step++ {
			now += arch.Cycles(rng.Intn(3)) * arch.Cycles(rng.Intn(20000))
			var got, want any
			var what string
			switch op := rng.Intn(10); op {
			case 0, 1:
				d := dps[rng.Intn(len(dps))]
				what = "Request " + string(d.ID)
				r1, e1 := c.Request(d, now)
				r2, e2 := ref.Request(d, now)
				got, want = []any{r1, fmt.Sprint(e1)}, []any{r2, fmt.Sprint(e2)}
			case 2, 3:
				var sel []*ise.ISE
				for i, n := 0, 1+rng.Intn(3); i < n; i++ {
					e := &ise.ISE{ID: fmt.Sprintf("e%d", i), Kernel: kernels[i].ID}
					for j, m := 0, 1+rng.Intn(2); j < m; j++ {
						e.DataPaths = append(e.DataPaths, dps[rng.Intn(len(dps))])
						e.Latencies = append(e.Latencies, 10)
					}
					sel = append(sel, e)
				}
				what = "CommitSelectionSafe"
				got, want = c.CommitSelectionSafe(sel, now), ref.CommitSelectionSafe(sel, now)
			case 4:
				prc, cg := rng.Intn(cfg.NPRC+2)-1, rng.Intn(cfg.NCG+2)-1
				what = fmt.Sprintf("Reserve %d/%d", prc, cg)
				got, want = fmt.Sprint(c.Reserve(prc, cg)), fmt.Sprint(ref.Reserve(prc, cg))
			case 5:
				k := kernels[rng.Intn(len(kernels))]
				if rng.Intn(3) == 0 {
					what = "ReleaseMonoCG " + string(k.ID)
					c.ReleaseMonoCG(k.ID)
					ref.ReleaseMonoCG(k.ID)
					break
				}
				what = "AcquireMonoCG " + string(k.ID)
				r1, ok1 := c.AcquireMonoCG(k, now)
				r2, ok2 := ref.AcquireMonoCG(k, now)
				got, want = []any{r1, ok1}, []any{r2, ok2}
			case 6:
				kind, permanent := kinds[rng.Intn(2)], rng.Intn(2) == 0
				what = fmt.Sprintf("FailUnit %v permanent=%v", kind, permanent)
				c.Advance(now)
				ref.Advance(now)
				got, want = c.FailUnit(kind, permanent), ref.FailUnit(kind, permanent)
			case 7:
				kind := kinds[rng.Intn(2)]
				what = fmt.Sprintf("RecoverUnit %v", kind)
				got, want = c.RecoverUnit(kind), ref.RecoverUnit(kind)
			case 8:
				kind := kinds[rng.Intn(2)]
				total := cfg.NPRC
				if kind == arch.CG {
					total = cfg.NCG
				}
				capacity, retained := rng.Intn(total+1), rng.Intn(total+1)
				what = fmt.Sprintf("Repartition %v %d retained %d", kind, capacity, retained)
				n1, l1, e1 := c.Repartition(kind, capacity, retained, now)
				n2, l2, e2 := ref.Repartition(kind, capacity, retained, now)
				got, want = []any{n1, l1, fmt.Sprint(e1)}, []any{n2, l2, fmt.Sprint(e2)}
			case 9:
				if rng.Intn(4) == 0 {
					what = "EvictAll"
					c.EvictAll()
					ref.EvictAll()
				} else {
					what = "Advance"
					c.Advance(now)
					ref.Advance(now)
				}
			}
			fail := func(format string, args ...any) {
				t.Fatalf("seed %d, sequence %d, step %d (%s) on %v: %s", seed, seq, step, what, cfg, fmt.Sprintf(format, args...))
			}
			if !reflect.DeepEqual(got, want) {
				fail("returned %v, reference %v", got, want)
			}
			if g, w := rec.Events(), refRec.Events(); !reflect.DeepEqual(g, w) {
				fail("events\n%v\nreference\n%v", g, w)
			}
			if g, w := c.ConfiguredPaths(), ref.ConfiguredPaths(); !reflect.DeepEqual(g, w) {
				fail("ConfiguredPaths %v, reference %v", g, w)
			}
			if g, w := c.NextReady(now), ref.NextReady(now); g != w {
				fail("NextReady %d, reference %d", g, w)
			}
			if g, w := c.Version(), ref.version; g != w {
				fail("Version %d, reference %d", g, w)
			}
			if c.FreePRC() != ref.FreePRC() || c.FreeCG() != ref.FreeCG() {
				fail("free %d/%d, reference %d/%d", c.FreePRC(), c.FreeCG(), ref.FreePRC(), ref.FreeCG())
			}
			if g, w := c.TakeInvalidated(), ref.TakeInvalidated(); !reflect.DeepEqual(g, w) {
				fail("TakeInvalidated %v, reference %v", g, w)
			}
			if g, w := c.Stats(), ref.stats; g != w {
				fail("Stats %+v, reference %+v", g, w)
			}
			for _, d := range dps {
				r1, ok1 := c.ReadyTime(d.ID)
				r2, ok2 := ref.ReadyTime(d.ID)
				if r1 != r2 || ok1 != ok2 || c.IsConfigured(d.ID) != (ok2 && r2 <= ref.now) {
					fail("%s ready %d %v, reference %d %v", d.ID, r1, ok1, r2, ok2)
				}
			}
			for _, k := range kernels {
				r1, ok1 := c.MonoCGReady(k.ID)
				r2, ok2 := ref.MonoCGReady(k.ID)
				if r1 != r2 || ok1 != ok2 {
					fail("monoCG %s ready %d %v, reference %d %v", k.ID, r1, ok1, r2, ok2)
				}
			}
		}
		st := c.Stats()
		evictions += int(st.Evictions)
		faultEvictions += int(st.FaultEvictions)
		migrations += int(st.Migrations)
	}

	// Ready times of one fabric kind are distinct port ends (every
	// configuration occupies the serial port for a positive latency), so
	// the operations above never tie on ready time. The tie-break on ID
	// is checked on the sort directly, against the reference comparator.
	for trial := 0; trial < 200; trial++ {
		var slots []slot
		for i, n := 0, rng.Intn(slotBuf+4); i < n; i++ {
			slots = append(slots, slot{dp: dps[rng.Intn(len(dps))], ready: arch.Cycles(rng.Intn(4))})
			slots[i].dp.ID += ise.DataPathID(fmt.Sprint("/", i))
		}
		want := make([]*slot, len(slots))
		for i := range slots {
			want[i] = &slots[i]
		}
		sort.Slice(want, func(i, j int) bool { return refOlder(want[i], want[j]) })
		wantIDs := make([]ise.DataPathID, len(want))
		for i, s := range want {
			wantIDs[i] = s.dp.ID
			if i > 0 && want[i-1].ready == s.ready {
				ties++
			}
		}
		got := append([]slot(nil), slots...)
		sortOldestFirst(got)
		for i := range got {
			if got[i].dp.ID != wantIDs[i] {
				t.Fatalf("seed %d, trial %d: sortOldestFirst order %v, reference %v", seed, trial, got, wantIDs)
			}
		}
	}
	t.Logf("seed %d: %d evictions, %d fault evictions, %d migrations, %d ready-time ties", seed, evictions, faultEvictions, migrations, ties)
	if evictions == 0 || faultEvictions == 0 || migrations == 0 || ties == 0 {
		t.Errorf("seed %d: %d evictions, %d fault evictions, %d migrations, %d ready-time ties; every case must occur",
			seed, evictions, faultEvictions, migrations, ties)
	}
}
