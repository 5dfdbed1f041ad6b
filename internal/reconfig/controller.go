// Package reconfig implements the reconfiguration controller of the
// multi-grained processor: it owns the fabric inventory (PRCs, CG-EDPEs),
// schedules data-path reconfigurations — serially through the single
// fine-grained configuration port, and via context streaming for the
// coarse-grained fabric — tracks completion times, and manages
// monoCG-Extension slots for the Execution Control Unit.
//
// Configured data paths are not torn down eagerly: when a new selection is
// committed, the data paths of the previous selection merely lose their
// pin and are evicted lazily, only when capacity is actually needed. This
// matches the RISPP-style fabric management the paper builds on — a data
// path that survives until the same functional block is entered again
// costs nothing to "reconfigure".
//
// The fabric holds at most NPRC+NCG units and every data path occupies at
// least one, so the controller keeps its data paths in a small slice of
// slots (stored by value, in no particular order) and finds them with a
// linear scan: on the trigger and execution paths that is cheaper than
// hashing a data-path ID, and needs no allocation. removePath is the only
// way a slot leaves the slice — it swap-removes the slot and keeps the
// occupancy counters and the change version in sync — so every query that
// depends on order (eviction, ConfiguredPaths, migration) sorts first.
package reconfig

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mrts/internal/arch"
	"mrts/internal/ise"
	"mrts/internal/obs"
)

// Stats accumulates controller activity for the experiment reports. The
// fault-related counters carry omitempty tags so that the serialised form
// of a fault-free run is byte-identical to the pre-fault encoding.
type Stats struct {
	// FGReconfigs / CGReconfigs count scheduled data-path
	// reconfigurations per fabric.
	FGReconfigs int64
	CGReconfigs int64
	// FGBusyCycles / CGBusyCycles are the cycles the configuration ports
	// spent streaming.
	FGBusyCycles arch.Cycles
	CGBusyCycles arch.Cycles
	// Evictions counts configured or in-flight data paths removed to
	// make room.
	Evictions int64
	// MonoCGLoads counts monoCG-Extension context loads.
	MonoCGLoads int64

	// CRCFailures counts configuration attempts whose streamed bitstream
	// failed the CRC-style check.
	CRCFailures int64 `json:",omitempty"`
	// Retries counts configurations re-streamed after a CRC failure.
	Retries int64 `json:",omitempty"`
	// RetryCycles accumulates the deterministic backoff delays inserted
	// between configuration attempts.
	RetryCycles arch.Cycles `json:",omitempty"`
	// UnitsFailed counts containers taken out of service (fault events
	// plus containers declared failed after exhausted retries).
	UnitsFailed int64 `json:",omitempty"`
	// UnitsRecovered counts containers returning from transient outages.
	UnitsRecovered int64 `json:",omitempty"`
	// FaultEvictions counts data paths lost because their container
	// failed underneath them (a subset of Evictions).
	FaultEvictions int64 `json:",omitempty"`

	// Migrations counts configured data paths live-migrated between
	// containers by a vFabric repartition; MigrationCycles accumulates
	// their destination reconfiguration cost. Zero outside hypervisor
	// runs, so single-tenant encodings are unchanged.
	Migrations      int64       `json:",omitempty"`
	MigrationCycles arch.Cycles `json:",omitempty"`
}

// Retry bounds of the configuration port: a corrupted bitstream is
// re-streamed after a deterministic, exponentially growing backoff, at
// most MaxConfigAttempts times in total, after which the target container
// is declared failed. The loop is therefore provably bounded.
const MaxConfigAttempts = 3

// ErrConfigFailed marks a data-path configuration abandoned after
// MaxConfigAttempts corrupted streaming attempts; the target container has
// been declared failed.
var ErrConfigFailed = errors.New("configuration failed after retries")

// Verifier is the CRC-style configuration check the fault engine plugs
// into the controller: it reports whether the configuration attempt on the
// fabric kind completing at time `at` streamed a corrupted bitstream.
// Implementations may consume internal state per call (each attempt checks
// one streamed bitstream). A nil Verifier means every attempt is clean.
type Verifier interface {
	Corrupted(kind arch.FabricKind, at arch.Cycles) bool
}

type slot struct {
	dp     ise.DataPath
	ready  arch.Cycles
	pinned bool
}

type monoSlot struct {
	kernel ise.KernelID
	ready  arch.Cycles
}

// Controller is the reconfiguration controller. Methods take the current
// simulation time where it matters; Advance moves the controller's notion
// of "now" forward for the FabricView queries.
type Controller struct {
	cfg         arch.Config
	reservedPRC int
	reservedCG  int

	now arch.Cycles

	// paths holds every data path that is configured or in flight, one
	// slot per data path (see the package comment).
	paths []slot
	// commitDone backs CommitResult.Done of CommitSelectionSafe.
	commitDone []arch.Cycles
	// fgPortEnd / cgPortEnd are the times the configuration ports become
	// free again.
	fgPortEnd arch.Cycles
	cgPortEnd arch.Cycles

	// monos holds the loaded monoCG-Extension slots, one per kernel.
	monos []monoSlot
	// monoEnd is the latest ready time of any monoCG load since Reset: a
	// running max like the port ends, so a settled NextReady stays O(1).
	monoEnd arch.Cycles

	// occPRC / occCG mirror the PRC / CG-EDPE units held by c.paths. The
	// free-capacity queries run once per kernel execution via the ECU, so
	// they must not iterate the paths; every insert and delete keeps
	// these counters in sync instead (occupiedCG adds len(monos) on top).
	occPRC int
	occCG  int
	// version counts state changes that can downgrade an execution-steering
	// decision: data-path removals, ready-time changes (migration) and
	// monoCG releases. A verdict's lease (ecu.Decision.Until) holds only
	// while the version is unchanged. Additions do not bump it — a new data
	// path can only improve a later decision, and no execution adds one.
	version uint64

	// fabric tracks per-container health; all-healthy (the initial and
	// fault-free state) makes the capacity arithmetic identical to the
	// plain budget counts.
	fabric *arch.Fabric
	// verifier is the CRC check applied to every configuration attempt
	// (nil outside fault scenarios: every attempt is clean).
	verifier Verifier
	// obsr records configuration-port and fault events when tracing is on
	// (nil otherwise — the observer is strictly a tap).
	obsr *obs.Recorder
	// invalidated logs data paths lost to container failures since the
	// last TakeInvalidated call, for the runtime system to invalidate
	// the ISEs that reference them.
	invalidated []ise.DataPathID

	stats Stats
}

var _ ise.FabricView = (*Controller)(nil)

// NewController creates a controller for the given fabric budget.
func NewController(cfg arch.Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		cfg:    cfg,
		paths:  make([]slot, 0, cfg.NPRC+cfg.NCG),
		fabric: arch.NewFabric(cfg),
	}, nil
}

// Config returns the fabric budget the controller manages.
func (c *Controller) Config() arch.Config { return c.cfg }

// Stats returns a snapshot of the accumulated activity counters.
func (c *Controller) Stats() Stats { return c.stats }

// Now returns the controller's current time.
func (c *Controller) Now() arch.Cycles { return c.now }

// Advance moves the controller's clock forward. Time never moves backwards.
func (c *Controller) Advance(now arch.Cycles) {
	if now > c.now {
		c.now = now
	}
}

// Reset clears all configuration state and statistics; only the budget
// survives. Simulation runs Reset the controller first, so every report's
// counters cover exactly one run.
func (c *Controller) Reset() {
	clear(c.paths)
	c.paths = c.paths[:0]
	clear(c.monos)
	c.monos = c.monos[:0]
	c.occPRC, c.occCG = 0, 0
	c.version++
	c.fgPortEnd, c.cgPortEnd, c.monoEnd = 0, 0, 0
	c.now = 0
	c.reservedPRC, c.reservedCG = 0, 0
	c.fabric.Reset()
	c.verifier = nil
	c.obsr = nil
	c.invalidated = nil
	c.stats = Stats{}
}

// SetVerifier installs (or, with nil, removes) the CRC-style configuration
// check. The simulator installs the fault engine's verifier after Reset,
// so a reused controller never carries a stale verifier across runs.
func (c *Controller) SetVerifier(v Verifier) { c.verifier = v }

// SetObserver installs (or, with nil, removes) the decision-trace recorder.
// Like the verifier, it is cleared by Reset and re-installed by the
// simulator per run, so a reused controller never streams into a stale
// trace.
func (c *Controller) SetObserver(r *obs.Recorder) { c.obsr = r }

// Fabric exposes the per-container health state (read-mostly; mutate it
// through FailUnit / RecoverUnit so capacity overflows are handled).
func (c *Controller) Fabric() *arch.Fabric { return c.fabric }

// occupiedPRC/occupiedCG include in-flight data paths: a PRC is unusable
// from the moment its partial bitstream starts streaming.
func (c *Controller) occupiedPRC() int { return c.occPRC }

func (c *Controller) occupiedCG() int { return c.occCG + len(c.monos) }

// Version returns the controller's change version: it advances whenever a
// data path is removed or re-scheduled or a monoCG slot is released —
// exactly the events that can invalidate a previously optimal
// execution-steering decision before its lease runs out (NextReady covers
// the other way a verdict changes: a load completing). See
// ecu.Decision.Until.
func (c *Controller) Version() uint64 { return c.version }

// Forever is the time that never comes: NextReady's answer when nothing
// the controller holds becomes ready after now, and the lease of a verdict
// that only a controller mutation can change (see ecu.Decision.Until).
const Forever = arch.Cycles(math.MaxInt64)

// NextReady returns the earliest time after now at which a data path or a
// monoCG slot the controller holds becomes ready, or Forever if none does.
// Until then the set of configured data paths and ready monoCG slots can
// change only through a controller mutation (which bumps Version), so an
// execution-steering verdict taken at now holds for every execution that
// starts before it (see ecu.Decision.Until). When every port end and
// monoCG load lies at or before now — the common settled case — it answers
// without looking at the individual slots.
func (c *Controller) NextReady(now arch.Cycles) arch.Cycles {
	if c.fgPortEnd <= now && c.cgPortEnd <= now && c.monoEnd <= now {
		return Forever
	}
	next := Forever
	for i := range c.paths {
		if r := c.paths[i].ready; r > now && r < next {
			next = r
		}
	}
	for _, m := range c.monos {
		if m.ready > now && m.ready < next {
			next = m.ready
		}
	}
	return next
}

// FreePRC implements ise.FabricView: healthy PRCs neither occupied nor
// reserved.
func (c *Controller) FreePRC() int {
	return c.fabric.AvailablePRC() - c.reservedPRC - c.occupiedPRC()
}

// FreeCG implements ise.FabricView: healthy CG-EDPEs neither occupied nor
// reserved.
func (c *Controller) FreeCG() int {
	return c.fabric.AvailableCG() - c.reservedCG - c.occupiedCG()
}

// IsConfigured implements ise.FabricView: the data path is present and its
// reconfiguration has completed at the controller's current time.
func (c *Controller) IsConfigured(id ise.DataPathID) bool {
	i := c.find(id)
	return i >= 0 && c.paths[i].ready <= c.now
}

// ReadyTime reports when the data path will be (or was) configured.
func (c *Controller) ReadyTime(id ise.DataPathID) (arch.Cycles, bool) {
	i := c.find(id)
	if i < 0 {
		return 0, false
	}
	return c.paths[i].ready, true
}

// find returns the index of the data path's slot, or -1.
func (c *Controller) find(id ise.DataPathID) int {
	for i := range c.paths {
		if c.paths[i].dp.ID == id {
			return i
		}
	}
	return -1
}

// ConfiguredPrefix returns the length of the longest prefix of the ISE's
// data-path list whose members are all configured at the current time.
// This is the best available intermediate ISE (paper Section 4.1).
func (c *Controller) ConfiguredPrefix(e *ise.ISE) int {
	n := 0
	for _, d := range e.DataPaths {
		if !c.IsConfigured(d.ID) {
			break
		}
		n++
	}
	return n
}

// Reserve marks fabric as occupied by other tasks (run-time sharing,
// paper Section 1). Growing a reservation evicts unpinned data paths if
// necessary; it fails if pinned paths or monoCG slots are in the way.
func (c *Controller) Reserve(prc, cg int) error {
	if prc < 0 || cg < 0 {
		return fmt.Errorf("reconfig: negative reservation %d/%d", prc, cg)
	}
	if prc > c.cfg.NPRC || cg > c.cfg.NCG {
		return fmt.Errorf("reconfig: reservation %d/%d exceeds fabric %d/%d", prc, cg, c.cfg.NPRC, c.cfg.NCG)
	}
	needPRC := prc - c.reservedPRC - c.FreePRC()
	needCG := cg - c.reservedCG - c.FreeCG()
	if needPRC > 0 && c.evict(arch.FG, needPRC) < needPRC {
		return fmt.Errorf("reconfig: cannot reserve %d PRCs: pinned data paths in the way", prc)
	}
	if needCG > 0 && c.evict(arch.CG, needCG) < needCG {
		return fmt.Errorf("reconfig: cannot reserve %d CG-EDPEs: pinned data paths in the way", cg)
	}
	c.reservedPRC, c.reservedCG = prc, cg
	return nil
}

// Reserved returns the current reservation.
func (c *Controller) Reserved() (prc, cg int) { return c.reservedPRC, c.reservedCG }

// evict removes unpinned data paths of the given fabric kind until at least
// `units` capacity units have been freed or no candidates remain; it
// returns the units actually freed. Eviction order is deterministic:
// oldest ready time first, ties by ID.
func (c *Controller) evict(kind arch.FabricKind, units int) int {
	return c.evictPass(kind, units, false, false)
}

// evictPass is the eviction worker: it removes data paths of the kind with
// the given pin state until `units` capacity units are freed. record logs
// the removed paths as fault-invalidated (container failures only).
func (c *Controller) evictPass(kind arch.FabricKind, units int, pinned, record bool) int {
	var buf [slotBuf]slot
	cands := buf[:0]
	for _, s := range c.paths {
		if s.pinned != pinned || s.dp.Kind != kind {
			continue
		}
		cands = append(cands, s)
	}
	sortOldestFirst(cands)
	freed := 0
	for _, s := range cands {
		if freed >= units {
			break
		}
		c.removePath(c.find(s.dp.ID))
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

// removePath deletes the data path in slot i and keeps the occupancy
// counters and change version in sync. Every removal of a single slot must
// go through it. It swap-removes, so slot indices taken before the call
// are stale after it.
func (c *Controller) removePath(i int) {
	dp := c.paths[i].dp
	last := len(c.paths) - 1
	c.paths[i] = c.paths[last]
	c.paths[last] = slot{}
	c.paths = c.paths[:last]
	c.occPRC -= dp.PRCs
	c.occCG -= dp.CGs
	c.version++
}

// slotBuf sizes the stack buffers that eviction and migration collect
// their candidate slots in; a fabric larger than that spills to the heap.
const slotBuf = 16

// sortOldestFirst orders slots by ready time, ties by ID — the eviction
// and migration order. IDs are unique, so the order is total and the
// insertion sort (no allocation, and the slices are fabric-sized) yields
// the one sequence any sort would.
func sortOldestFirst(s []slot) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && olderSlot(&s[j], &s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func olderSlot(a, b *slot) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.dp.ID < b.dp.ID
}

// evictOverflow restores the capacity invariant after a container of the
// kind was lost: occupied + reserved must not exceed the healthy count.
// Unlike normal lazy eviction the pin cannot save a data path here — the
// hardware underneath it is gone — so pinned paths go too, after monoCG
// contexts (cheapest to drop) and unpinned paths. Every removed path is
// logged for the runtime system to invalidate the ISEs referencing it.
func (c *Controller) evictOverflow(kind arch.FabricKind) {
	var overflow int
	if kind == arch.FG {
		overflow = c.occupiedPRC() + c.reservedPRC - c.fabric.AvailablePRC()
	} else {
		overflow = c.occupiedCG() + c.reservedCG - c.fabric.AvailableCG()
	}
	if overflow <= 0 {
		return
	}
	// monoCG contexts go in kernel-ID order.
	for kind == arch.CG && overflow > 0 && len(c.monos) > 0 {
		first := 0
		for i := range c.monos {
			if c.monos[i].kernel < c.monos[first].kernel {
				first = i
			}
		}
		c.removeMono(first)
		overflow--
	}
	if overflow > 0 {
		overflow -= c.evictPass(kind, overflow, false, true)
	}
	if overflow > 0 {
		c.evictPass(kind, overflow, true, true)
	}
}

// FailUnit takes one healthy container of the kind out of service —
// permanently (a hard fault) or transiently (Suspect; RecoverUnit returns
// it). Data paths and monoCG contexts that no longer fit on the surviving
// fabric are evicted, pinned or not, and logged for invalidation. It
// reports whether a healthy container was left to fail.
func (c *Controller) FailUnit(kind arch.FabricKind, permanent bool) bool {
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

// RecoverUnit returns one transiently-down container of the kind to
// service. It reports whether a suspect container existed.
func (c *Controller) RecoverUnit(kind arch.FabricKind) bool {
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

// TakeInvalidated drains the log of data paths lost to container failures
// since the last call, sorted for determinism. The runtime system uses it
// to invalidate the ISEs whose data paths are gone.
func (c *Controller) TakeInvalidated() []ise.DataPathID {
	out := c.invalidated
	c.invalidated = nil
	slices.Sort(out)
	return out
}

// declareFailed marks one container of the kind permanently failed after a
// configuration exhausted its retry budget on it.
func (c *Controller) declareFailed(kind arch.FabricKind) {
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

// Request schedules the reconfiguration of a single data path at time now,
// unless it is already configured or in flight. Unpinned data paths are
// evicted on demand to make room. The requested path is pinned. It returns
// the time the data path becomes available.
func (c *Controller) Request(d ise.DataPath, now arch.Cycles) (arch.Cycles, error) {
	c.Advance(now)
	if i := c.find(d.ID); i >= 0 {
		c.paths[i].pinned = true
		return c.paths[i].ready, nil
	}
	switch d.Kind {
	case arch.FG:
		if need := d.PRCs - c.FreePRC(); need > 0 {
			c.evict(arch.FG, need)
		}
		if d.PRCs > c.FreePRC() {
			return 0, fmt.Errorf("reconfig: no free PRC for data path %q (need %d, free %d)", d.ID, d.PRCs, c.FreePRC())
		}
	case arch.CG:
		if need := d.CGs - c.FreeCG(); need > 0 {
			c.evict(arch.CG, need)
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
	c.paths = append(c.paths, slot{dp: d, ready: ready, pinned: true})
	c.occPRC += d.PRCs
	c.occCG += d.CGs
	return ready, nil
}

// schedule streams the data path's configuration through its fabric's
// port. Every attempt occupies the port for the full reconfiguration
// latency; a corrupted attempt (CRC check fails after streaming) is
// retried after a deterministic exponential backoff, at most
// MaxConfigAttempts times in total. It returns the completion time and
// whether a clean configuration was achieved. Without a verifier the loop
// body runs exactly once and the accounting matches the fault-free model.
func (c *Controller) schedule(d ise.DataPath, now arch.Cycles) (arch.Cycles, bool) {
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
		// Events are stamped with the controller clock (the request time),
		// not the — possibly future — port-streaming window, so trace
		// timestamps stay monotonic; the window is [Ready-Latency, Ready].
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

// configBackoff is the deterministic backoff inserted after corrupted
// attempt number `attempt` (1-based): a quarter of the reconfiguration
// latency, doubling per attempt, capped at one full latency.
func configBackoff(dur arch.Cycles, attempt int) arch.Cycles {
	b := (dur / 4) << uint(attempt-1)
	if b > dur {
		b = dur
	}
	return b
}

// CommitSelection installs the data paths of a newly selected ISE set: the
// previous selection's pins are dropped (the paths stay until capacity is
// needed), monoCG slots are released, and missing data paths are scheduled
// in the order the ISEs were selected (priority order). It returns the
// per-ISE completion times.
func (c *Controller) CommitSelection(selected []*ise.ISE, now arch.Cycles) ([]arch.Cycles, error) {
	done, _, err := c.commit(make([]arch.Cycles, len(selected)), selected, now, false)
	return done, err
}

// CommitResult reports a fault-tolerant commit: Done holds the per-ISE
// completion times (zero for skipped entries), in memory the controller
// reuses on its next CommitSelectionSafe; Skipped holds the indices of
// ISEs whose data paths could not be configured on the surviving fabric. Already-configured prefixes of skipped ISEs stay on the fabric,
// so the ECU can still dispatch them as intermediate ISEs.
type CommitResult struct {
	Done    []arch.Cycles
	Skipped []int
}

// CommitSelectionSafe is the fault-tolerant variant of CommitSelection:
// an ISE whose configuration fails — the surviving fabric is too small, or
// a container dies under retry exhaustion — is skipped instead of aborting
// the commit, and the remaining ISEs are still installed. With a healthy
// fabric it behaves exactly like CommitSelection.
func (c *Controller) CommitSelectionSafe(selected []*ise.ISE, now arch.Cycles) CommitResult {
	if c.commitDone == nil || cap(c.commitDone) < len(selected) {
		c.commitDone = make([]arch.Cycles, len(selected))
	}
	c.commitDone = c.commitDone[:len(selected)]
	clear(c.commitDone)
	done, skipped, _ := c.commit(c.commitDone, selected, now, true)
	return CommitResult{Done: done, Skipped: skipped}
}

// commit installs the selection, writing the per-ISE completion times into
// done (len(selected) zeroed entries).
func (c *Controller) commit(done []arch.Cycles, selected []*ise.ISE, now arch.Cycles, tolerate bool) ([]arch.Cycles, []int, error) {
	c.Advance(now)
	for i := range c.paths {
		c.paths[i].pinned = false
	}
	// monoCG slots do not survive a new selection: the CG-EDPEs they
	// borrow must be available for the committed data paths.
	c.releaseAllMono()

	// Pin already-present paths first so they cannot be evicted by the
	// requests below.
	for _, e := range selected {
		for _, d := range e.DataPaths {
			if i := c.find(d.ID); i >= 0 {
				c.paths[i].pinned = true
			}
		}
	}
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
			if !tolerate {
				return nil, nil, fmt.Errorf("reconfig: committing ISE %q: %w", e.ID, fail)
			}
			skipped = append(skipped, i)
			continue
		}
		done[i] = last
	}
	return done, skipped, nil
}

// SelectionView returns the fabric view the ISE selector works with when a
// trigger instruction arrives: the whole (unreserved) budget counts as
// free — the previous selection is about to be replaced and its data paths
// are evictable — while IsConfigured still reflects what is physically on
// the fabric, so covered and shared data paths are recognised.
func (c *Controller) SelectionView() ise.FabricView {
	return selectionView{c: c}
}

type selectionView struct{ c *Controller }

func (v selectionView) FreePRC() int { return v.c.fabric.AvailablePRC() - v.c.reservedPRC }
func (v selectionView) FreeCG() int  { return v.c.fabric.AvailableCG() - v.c.reservedCG }
func (v selectionView) IsConfigured(id ise.DataPathID) bool {
	return v.c.IsConfigured(id)
}

// PortBacklog implements ise.PortView: remaining busy time of the fabric's
// configuration port relative to the controller's current time.
func (v selectionView) PortBacklog(kind arch.FabricKind) arch.Cycles {
	var end arch.Cycles
	if kind == arch.FG {
		end = v.c.fgPortEnd
	} else {
		end = v.c.cgPortEnd
	}
	if end <= v.c.now {
		return 0
	}
	return end - v.c.now
}

// EvictAll removes every configured and in-flight data path and monoCG slot.
func (c *Controller) EvictAll() {
	c.stats.Evictions += int64(len(c.paths))
	clear(c.paths)
	c.paths = c.paths[:0]
	c.occPRC, c.occCG = 0, 0
	c.version++
	c.releaseAllMono()
}

// AcquireMonoCG loads the kernel's monoCG-Extension into a free CG-EDPE at
// time now and returns the time it becomes executable. Unpinned CG data
// paths may be evicted to free an EDPE (their contexts reload in
// microseconds). If the kernel already holds a monoCG slot, the existing
// ready time is returned.
func (c *Controller) AcquireMonoCG(k *ise.Kernel, now arch.Cycles) (arch.Cycles, bool) {
	if !k.MonoCG.Available() {
		return 0, false
	}
	c.Advance(now)
	if i := c.findMono(k.ID); i >= 0 {
		return c.monos[i].ready, true
	}
	if c.FreeCG() < 1 {
		c.evict(arch.CG, 1)
	}
	if c.FreeCG() < 1 {
		return 0, false
	}
	ready := now + k.MonoCG.ReconfigCycles()
	c.monos = append(c.monos, monoSlot{kernel: k.ID, ready: ready})
	c.monoEnd = maxCycles(c.monoEnd, ready)
	c.stats.MonoCGLoads++
	c.stats.CGBusyCycles += k.MonoCG.ReconfigCycles()
	return ready, true
}

// MonoCGReady reports whether the kernel holds a monoCG slot and when it is
// (or was) ready.
func (c *Controller) MonoCGReady(id ise.KernelID) (arch.Cycles, bool) {
	i := c.findMono(id)
	if i < 0 {
		return 0, false
	}
	return c.monos[i].ready, true
}

// ReleaseMonoCG frees the kernel's monoCG slot, if any.
func (c *Controller) ReleaseMonoCG(id ise.KernelID) {
	if i := c.findMono(id); i >= 0 {
		c.removeMono(i)
	}
}

// findMono returns the index of the kernel's monoCG slot, or -1.
func (c *Controller) findMono(id ise.KernelID) int {
	for i := range c.monos {
		if c.monos[i].kernel == id {
			return i
		}
	}
	return -1
}

// removeMono swap-removes monoCG slot i and bumps the change version.
func (c *Controller) removeMono(i int) {
	last := len(c.monos) - 1
	c.monos[i] = c.monos[last]
	c.monos[last] = monoSlot{}
	c.monos = c.monos[:last]
	c.version++
}

func (c *Controller) releaseAllMono() {
	if len(c.monos) == 0 {
		return
	}
	clear(c.monos)
	c.monos = c.monos[:0]
	c.version++
}

// ConfiguredPaths returns the IDs of all fully configured data paths at the
// current time, sorted for determinism.
func (c *Controller) ConfiguredPaths() []ise.DataPathID {
	var out []ise.DataPathID
	for _, s := range c.paths {
		if s.ready <= c.now {
			out = append(out, s.dp.ID)
		}
	}
	slices.Sort(out)
	return out
}

func maxCycles(a, b arch.Cycles) arch.Cycles {
	if a > b {
		return a
	}
	return b
}
