// Package obs is the decision-trace observability layer of the simulator:
// a structured event recorder threaded through the runtime-system stack
// (MPU forecast corrections, greedy selection claims, ECU dispatch
// decisions, reconfiguration-port activity, fault deliveries, selection
// cache traffic) that answers the question every selection regression
// boils down to — *why* did mRTS pick this ISE variant at this instant?
//
// Events carry the monotonic simulation-cycle timestamp at which they were
// recorded and serialise to JSONL (one JSON object per line), the format
// `cmd/mrts-timeline` renders into per-container Gantt timelines.
//
// The recorder is strictly a tap: it never feeds back into the simulation,
// so a run with a recorder attached produces a report byte-identical to a
// run without one. Every recording method is nil-safe — a nil *Recorder is
// the disabled state, and call sites additionally guard with a nil check so
// that observation off costs neither time nor allocations on the hot path.
package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"mrts/internal/arch"
)

// Event sources, one per instrumented layer.
const (
	SourceMPU      = "mpu"      // forecast corrections, observations, disruptions
	SourceSelector = "selector" // per-round greedy claims with profit inputs
	SourceECU      = "ecu"      // per-execution dispatch decisions
	SourceReconfig = "reconfig" // configuration-port start/finish/retry/evict
	SourceSim      = "sim"      // run markers and fault deliveries
	SourceCore     = "core"     // invalidations and skips of committed selections
	SourceVFabric  = "vfabric"  // hypervisor repartitions and tenant scheduling
	SourceNet      = "net"      // injected network faults and cluster liveness transitions
)

// Event kinds. Not every kind carries every field; zero-valued fields are
// omitted from the wire encoding.
const (
	KindRun        = "run"        // run marker: policy/fabric of the stream
	KindForecast   = "forecast"   // MPU-corrected trigger forecast
	KindObserve    = "observe"    // monitored ground truth folded into the MPU
	KindDisrupt    = "disrupt"    // MPU told to discard the iteration's observations
	KindClaim      = "claim"      // greedy round granted an ISE its resources
	KindDispatch   = "dispatch"   // ECU execution-mode decision
	KindConfig     = "config"     // configuration streaming scheduled (Cycle..Ready)
	KindRetry      = "retry"      // corrupted bitstream re-streamed after backoff
	KindEvict      = "evict"      // data path removed from the fabric
	KindUnitFail   = "unit-fail"  // container taken out of service
	KindUnitUp     = "unit-up"    // container recovered from a transient outage
	KindFault      = "fault"      // fault event delivered by the simulator
	KindInvalidate = "invalidate" // selected ISE dropped: a data path was lost
	KindSkip       = "skip"       // committed ISE skipped by the surviving fabric

	KindMigrate     = "migrate"     // configured data path re-streamed into a new container
	KindRepartition = "repartition" // a tenant's vFabric windows changed at an epoch boundary

	KindPartition   = "partition"    // a network partition opened (netfault)
	KindPartHeal    = "part-heal"    // a network partition healed
	KindSuspect     = "suspect"      // a peer entered the suspect state (flap damping)
	KindRejoin      = "rejoin"       // a dead peer rejoined; resync may follow
	KindFenceReject = "fence-reject" // a stale steal ack was rejected by its fencing token
)

// Event is one structured decision-trace record. Cycle is always the
// simulation time at which the event was recorded, so events of one run are
// non-decreasing in Cycle; spans (configuration streaming) carry their
// completion time in Ready.
type Event struct {
	Cycle  arch.Cycles `json:"cycle"`
	Source string      `json:"source"`
	Kind   string      `json:"kind"`

	// Run labels the run the event belongs to when several runs share one
	// trace stream (mrts-sweep -trace).
	Run string `json:"run,omitempty"`
	// Tenant labels the vFabric tenant the event belongs to when a
	// hypervisor multiplexes several runtime systems over one stream.
	Tenant string `json:"tenant,omitempty"`
	// Node labels the cluster member that produced the event when traces
	// from several mrts-serve nodes are merged for analysis.
	Node string `json:"node,omitempty"`

	Block  string `json:"block,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	ISE    string `json:"ise,omitempty"`
	// Path is the data-path / container identifier of reconfiguration
	// events — the lane key of the per-container timeline.
	Path   string `json:"path,omitempty"`
	Fabric string `json:"fabric,omitempty"` // "FG" or "CG"
	Mode   string `json:"mode,omitempty"`   // ECU execution mode
	Level  int    `json:"level,omitempty"`  // intermediate-ISE level
	Round  int    `json:"round,omitempty"`  // greedy selection round

	// E / TF / TB are forecast or observation values (executions, time to
	// first execution, time between executions).
	E  int64 `json:"e,omitempty"`
	TF int64 `json:"tf,omitempty"`
	TB int64 `json:"tb,omitempty"`
	// Err is the absolute execution-count forecast error of a scored
	// observe event: |issued forecast - observed count|. Omitted when the
	// observation was discarded (disrupted iteration) or nothing was
	// issued; a perfect forecast encodes as 0 and is omitted too.
	Err int64 `json:"err,omitempty"`

	// Profit is the expected profit of a selector claim.
	Profit float64 `json:"profit,omitempty"`
	// Latency is an execution or backoff latency.
	Latency arch.Cycles `json:"latency,omitempty"`
	// Ready is the completion time of a span that starts at Cycle.
	Ready arch.Cycles `json:"ready,omitempty"`

	Detail string `json:"detail,omitempty"`
}

// Recorder collects events. The zero value is not usable; use New or
// NewStreaming. A nil *Recorder is the disabled recorder: every method is a
// no-op, so call sites need no guard (though hot paths keep one to skip
// event construction entirely).
//
// Recorders are safe for concurrent use: the service records from worker
// goroutines, and a sweep may fan points out across cores.
type Recorder struct {
	mu     sync.Mutex
	run    string
	tenant string
	node   string
	events []Event
	w      *bufio.Writer
	err    error
}

// New creates an in-memory recorder.
func New() *Recorder { return &Recorder{} }

// NewStreaming creates a recorder that additionally writes each event to w
// as JSONL at record time (buffered; call Flush when the run is done).
func NewStreaming(w io.Writer) *Recorder {
	return &Recorder{w: bufio.NewWriter(w)}
}

// SetRun labels every subsequently recorded event with the run identifier,
// so several runs can share one trace stream. Nil-safe.
func (r *Recorder) SetRun(run string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
}

// SetTenant labels every subsequently recorded event with the tenant
// identifier. The vfabric hypervisor switches it before stepping each
// tenant so that interleaved events stay attributable. Nil-safe.
func (r *Recorder) SetTenant(tenant string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tenant = tenant
	r.mu.Unlock()
}

// SetNode labels every subsequently recorded event with the cluster
// member that produced it, so traces captured on different mrts-serve
// nodes stay attributable after they are merged. Nil-safe.
func (r *Recorder) SetNode(node string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.node = node
	r.mu.Unlock()
}

// Record appends one event, stamping the current run and tenant labels.
// Nil-safe.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ev.Run == "" {
		ev.Run = r.run
	}
	if ev.Tenant == "" {
		ev.Tenant = r.tenant
	}
	if ev.Node == "" {
		ev.Node = r.node
	}
	r.events = append(r.events, ev)
	if r.w != nil && r.err == nil {
		b, err := json.Marshal(ev)
		if err == nil {
			_, err = r.w.Write(append(b, '\n'))
		}
		if err != nil {
			r.err = err
		}
	}
}

// Len returns the number of recorded events. Nil-safe (0).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the recorded events in record order. Nil-safe
// (nil).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Reset drops every recorded event (the streaming sink, if any, is kept).
// Nil-safe.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.events = r.events[:0]
	r.mu.Unlock()
}

// Flush flushes the streaming sink and returns the first error the sink
// produced, if any. Nil-safe (nil).
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w != nil && r.err == nil {
		r.err = r.w.Flush()
	}
	return r.err
}

// WriteJSONL serialises the recorded events to w, one JSON object per
// line. Nil-safe (writes nothing).
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// JSONL returns the recorded events as one JSONL string. Nil-safe ("").
func (r *Recorder) JSONL() string {
	if r == nil {
		return ""
	}
	var buf bytes.Buffer
	_ = r.WriteJSONL(&buf) // bytes.Buffer writes cannot fail
	return buf.String()
}

// ReadAll parses a JSONL trace stream back into events. Blank lines are
// skipped; a malformed line fails with its 1-based line number.
func ReadAll(rd io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, nil
}

// ReadAllLenient parses a JSONL trace stream, skipping malformed lines
// instead of failing on the first one — the right behaviour for traces
// truncated by a crash or corrupted in transit. It returns the events it
// could parse and the 1-based line numbers it skipped; only I/O errors
// are fatal. Blank lines are neither events nor skips.
func ReadAllLenient(rd io.Reader) ([]Event, []int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	var out []Event
	var skipped []int
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			skipped = append(skipped, line)
			continue
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return out, skipped, nil
}
