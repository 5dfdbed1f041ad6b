package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mrts/internal/arch"
)

// TestNilRecorderIsNoOp pins the disabled-state contract: every method of a
// nil *Recorder must be a safe no-op, because call sites across the stack
// hold a possibly-nil recorder and only hot paths add their own guard.
func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.SetRun("x")
	r.Record(Event{Source: SourceSim, Kind: KindRun})
	r.Reset()
	if got := r.Len(); got != 0 {
		t.Errorf("nil.Len() = %d, want 0", got)
	}
	if got := r.Events(); got != nil {
		t.Errorf("nil.Events() = %v, want nil", got)
	}
	if err := r.Flush(); err != nil {
		t.Errorf("nil.Flush() = %v, want nil", err)
	}
	if got := r.JSONL(); got != "" {
		t.Errorf("nil.JSONL() = %q, want empty", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil.WriteJSONL wrote %q, err %v", buf.String(), err)
	}
}

func TestRecorderStampsRunLabel(t *testing.T) {
	r := New()
	r.Record(Event{Cycle: 1, Source: SourceSim, Kind: KindRun})
	r.SetRun("mrts/2x2")
	r.Record(Event{Cycle: 2, Source: SourceCore, Kind: KindSkip})
	r.Record(Event{Cycle: 3, Source: SourceCore, Kind: KindInvalidate, Run: "explicit"})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	if evs[0].Run != "" {
		t.Errorf("pre-label event got run %q, want empty", evs[0].Run)
	}
	if evs[1].Run != "mrts/2x2" {
		t.Errorf("labelled event got run %q", evs[1].Run)
	}
	if evs[2].Run != "explicit" {
		t.Errorf("explicit run overwritten: %q", evs[2].Run)
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	r := New()
	r.Record(Event{Cycle: 1})
	evs := r.Events()
	evs[0].Cycle = 99
	if got := r.Events()[0].Cycle; got != 1 {
		t.Errorf("mutating the returned slice reached the recorder: cycle = %d", got)
	}
}

// TestJSONLRoundTrip: every field written by WriteJSONL must survive
// ReadAll unchanged — the contract between the recorder and
// cmd/mrts-timeline.
func TestJSONLRoundTrip(t *testing.T) {
	r := New()
	r.SetRun("mrts/2x1")
	full := Event{
		Cycle: 42, Source: SourceSelector, Kind: KindClaim,
		Block: "enc", Phase: "P", Kernel: "sad", ISE: "sad-cg",
		Path: "PRC0/dp1", Fabric: "FG", Mode: "full-ISE",
		Level: 2, Round: 3, E: 1200, TF: 77, TB: 13,
		Profit: 1.5, Latency: 9, Ready: 51, Detail: "d",
	}
	r.Record(full)
	r.Record(Event{Cycle: 43, Source: SourceSim, Kind: KindFault})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Events()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed events:\n got %+v\nwant %+v", got, want)
	}
	if got[0].Run != "mrts/2x1" {
		t.Errorf("run label lost: %q", got[0].Run)
	}
}

func TestReadAllSkipsBlankAndReportsLine(t *testing.T) {
	in := "\n{\"cycle\":1,\"source\":\"sim\",\"kind\":\"run\"}\n\n  \n{\"cycle\":2,\"source\":\"mpu\",\"kind\":\"observe\"}\n"
	evs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Errorf("ReadAll = %+v", evs)
	}

	_, err = ReadAll(strings.NewReader("{\"cycle\":1}\n{oops\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("malformed line error = %v, want 1-based line number", err)
	}
}

func TestReadAllLenientSkipsMalformed(t *testing.T) {
	// A corrupt line in the middle and a torn line at the tail — the shape
	// of a trace whose writer was SIGKILLed mid-flush.
	in := "{\"cycle\":1,\"source\":\"sim\",\"kind\":\"run\"}\n" +
		"not json at all\n" +
		"{\"cycle\":2,\"source\":\"mpu\",\"kind\":\"observe\"}\n" +
		"\n" +
		"{\"cycle\":3,\"source\":\"ecu\",\"kind\":\"disp"
	evs, skipped, err := ReadAllLenient(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Cycle != 1 || evs[1].Cycle != 2 {
		t.Errorf("events = %+v, want the two intact lines", evs)
	}
	if len(skipped) != 2 || skipped[0] != 2 || skipped[1] != 5 {
		t.Errorf("skipped = %v, want [2 5] (1-based, blanks not counted as skips)", skipped)
	}
}

func TestReadAllLenientEmpty(t *testing.T) {
	evs, skipped, err := ReadAllLenient(strings.NewReader(""))
	if err != nil || len(evs) != 0 || len(skipped) != 0 {
		t.Errorf("empty trace: evs=%v skipped=%v err=%v", evs, skipped, err)
	}
}

func TestStreamingRecorderWritesAtRecordTime(t *testing.T) {
	var buf bytes.Buffer
	r := NewStreaming(&buf)
	r.SetRun("s")
	r.Record(Event{Cycle: 5, Source: SourceReconfig, Kind: KindConfig, Path: "CG0", Ready: 105, Latency: 100})
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Ready != 105 || evs[0].Run != "s" {
		t.Errorf("streamed events = %+v", evs)
	}
	// The in-memory copy is kept alongside the stream.
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
}

func TestResetDropsEvents(t *testing.T) {
	r := New()
	r.Record(Event{Cycle: 1})
	r.Reset()
	if r.Len() != 0 {
		t.Errorf("Len after Reset = %d", r.Len())
	}
	r.Record(Event{Cycle: 2})
	if got := r.Events(); len(got) != 1 || got[0].Cycle != 2 {
		t.Errorf("recorder unusable after Reset: %+v", got)
	}
}

// TestRecorderConcurrent exercises the mutex under the race detector: the
// service records from worker goroutines and sweeps fan points across cores.
func TestRecorderConcurrent(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Record(Event{Cycle: arch.Cycles(i), Source: SourceECU, Kind: KindDispatch, Round: g})
			}
		}(g)
	}
	wg.Wait()
	if got := r.Len(); got != 800 {
		t.Errorf("Len = %d, want 800", got)
	}
}
