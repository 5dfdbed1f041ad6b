package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mrts/internal/arch"
	"mrts/internal/core"
	"mrts/internal/ecu"
	"mrts/internal/ise"
	"mrts/internal/mpu"
	"mrts/internal/obs"
	"mrts/internal/selector"
)

// span is one timed interval at a layer boundary. Aggregated spans (the
// sampled core.execute record of a simulation) carry the number of calls
// they stand for and how many of those were timed.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Name    string `json:"name"`
	Item    string `json:"item,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls,omitempty"`
	Sampled int64  `json:"sampled,omitempty"`
}

// tracer keeps spans in memory until the run ends. Start offsets are
// relative to the tracer's epoch, so a file reads the same on any clock.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records the span [start, end) under parent and returns its id (a
// fresh one when id is 0).
func (t *tracer) add(id, parent int64, name, item string, start, end time.Time) int64 {
	if id == 0 {
		id = t.newID()
	}
	t.push(span{ID: id, Parent: parent, Name: name, Item: item,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds()})
	return id
}

func (t *tracer) push(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// clockCost is the median reading of an empty interval between two
// time.Now calls on this host. Every timed call into a layer is charged
// less this much: Execute takes tens of nanoseconds, the same order as the
// clock reads around it.
var clockCost = calibrateClock()

func calibrateClock() int64 {
	xs := make([]float64, 20000)
	for i := range xs {
		t0 := time.Now()
		t1 := time.Now()
		xs[i] = float64(t1.Sub(t0).Nanoseconds())
	}
	return int64(median(xs))
}

// elapsedNS is t1 - t0 less the clock's own cost, never negative.
func elapsedNS(t0, t1 time.Time) int64 {
	return max(t1.Sub(t0).Nanoseconds()-clockCost, 0)
}

// executeSampleEvery is the 1-in-N rate at which Execute calls are timed.
// A phased point makes about 3 M calls; timing each one doubled the run,
// while a deterministic sample scaled by the exact call count does not.
const executeSampleEvery = 64

// tracedRTS decorates a runtime system with host-time accounting of its
// three simulator-facing calls. It forwards every optional interface the
// simulator and the experiment harness probe for, so a traced report is
// byte-identical to an untraced one.
type tracedRTS struct {
	core.RuntimeSystem

	tr     *tracer // nil: accumulate only, record no spans
	parent int64
	item   string

	triggerNS, blockEndNS  int64
	execCalls, execSampled int64
	execSampledNS          int64
	firstExec, lastExec    time.Time
}

func (r *tracedRTS) OnTrigger(block *ise.FunctionalBlock, phase string, triggers []ise.Trigger, now arch.Cycles) (arch.Cycles, error) {
	t0 := time.Now()
	v, err := r.RuntimeSystem.OnTrigger(block, phase, triggers, now)
	t1 := time.Now()
	r.triggerNS += elapsedNS(t0, t1)
	if r.tr != nil {
		r.tr.add(0, r.parent, "core.trigger", r.item, t0, t1)
	}
	return v, err
}

func (r *tracedRTS) Execute(k *ise.Kernel, now arch.Cycles) ecu.Decision {
	r.execCalls++
	if r.execCalls%executeSampleEvery != 0 {
		return r.RuntimeSystem.Execute(k, now)
	}
	t0 := time.Now()
	d := r.RuntimeSystem.Execute(k, now)
	t1 := time.Now()
	if r.execSampled == 0 {
		r.firstExec = t0
	}
	r.lastExec = t1
	r.execSampled++
	r.execSampledNS += elapsedNS(t0, t1)
	return d
}

func (r *tracedRTS) OnBlockEnd(block *ise.FunctionalBlock, phase string, profile []ise.Trigger, o []mpu.Observation, now arch.Cycles) {
	t0 := time.Now()
	r.RuntimeSystem.OnBlockEnd(block, phase, profile, o, now)
	t1 := time.Now()
	r.blockEndNS += elapsedNS(t0, t1)
	if r.tr != nil {
		r.tr.add(0, r.parent, "core.block_end", r.item, t0, t1)
	}
}

// executeNS estimates the host time of every Execute call from the
// sampled ones.
func (r *tracedRTS) executeNS() int64 {
	if r.execSampled == 0 {
		return 0
	}
	return r.execSampledNS * r.execCalls / r.execSampled
}

// flushExecute records the simulation's Execute calls as one aggregated
// span: the sampled calls are too many to keep one by one.
func (r *tracedRTS) flushExecute() {
	if r.tr != nil && r.execSampled > 0 {
		r.tr.push(span{
			ID: r.tr.newID(), Parent: r.parent, Name: "core.execute", Item: r.item,
			StartNS: r.firstExec.Sub(r.tr.epoch).Nanoseconds(), EndNS: r.lastExec.Sub(r.tr.epoch).Nanoseconds(),
			Calls: r.execCalls, Sampled: r.execSampled,
		})
	}
}

func (r *tracedRTS) Stats() core.Stats {
	if s, ok := r.RuntimeSystem.(interface{ Stats() core.Stats }); ok {
		return s.Stats()
	}
	return core.Stats{}
}

func (r *tracedRTS) ForecastErrors() mpu.ErrorReport {
	if f, ok := r.RuntimeSystem.(interface{ ForecastErrors() mpu.ErrorReport }); ok {
		return f.ForecastErrors()
	}
	return mpu.ErrorReport{}
}

// OnFault forwards to a reacting system. For one that does not react the
// simulator's own non-reacting path also charges nothing, so answering
// (0, nil) keeps the report unchanged.
func (r *tracedRTS) OnFault(lost []ise.DataPathID, now arch.Cycles) (arch.Cycles, error) {
	if fh, ok := r.RuntimeSystem.(core.FaultHandler); ok {
		return fh.OnFault(lost, now)
	}
	return 0, nil
}

func (r *tracedRTS) SetSharedMemo(m *selector.Memo) bool {
	if s, ok := r.RuntimeSystem.(interface{ SetSharedMemo(*selector.Memo) bool }); ok {
		return s.SetSharedMemo(m)
	}
	return false
}

// SetObserver mirrors the simulator's fallback: systems without their own
// recording sites trace through their controller.
func (r *tracedRTS) SetObserver(rec *obs.Recorder) {
	if s, ok := r.RuntimeSystem.(interface{ SetObserver(*obs.Recorder) }); ok {
		s.SetObserver(rec)
		return
	}
	r.Controller().SetObserver(rec)
}
