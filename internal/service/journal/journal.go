// Package journal is the write-ahead job journal of mrts-serve: an
// append-only JSONL file that records every job state transition
// (submit, start, complete, cancel) so a restarted daemon can rebuild
// its job table — completed jobs keep their results, unfinished jobs are
// re-run (safe because jobs are deterministic), and idempotency keys are
// rebuilt so client replays still dedupe.
//
// Wire format: one record per line, wrapped in a CRC envelope
//
//	{"crc":<IEEE CRC32 of the rec bytes>,"rec":{...}}
//
// Replay is truncation-tolerant: a line that does not parse or whose
// checksum does not match — the torn tail of a crash mid-write, or a
// corrupted sector — is skipped and counted, and every intact record is
// recovered. Appends are batched: writers block until their record is
// fsynced, but one fsync covers every record written since the last one
// (group commit), so durable submission throughput is not one fsync per
// job.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"mrts/internal/service/api"
)

// Record kinds, in lifecycle order.
const (
	// KindSubmit records an accepted job: ID, spec, idempotency key.
	KindSubmit = "submit"
	// KindStart records that a worker picked the job up.
	KindStart = "start"
	// KindComplete records the terminal state, with the result for done
	// jobs. A job with no complete record is re-run on replay.
	KindComplete = "complete"
	// KindCancel records a cancellation request; replaying a cancel with
	// no complete record marks the job cancelled instead of re-running it.
	KindCancel = "cancel"
	// KindReject voids a submit whose enqueue was rolled back (queue
	// full): replay drops the pair entirely, as if never submitted.
	// Current servers decide admission before journaling the submit and
	// never write rejects; replay still honors them in older journals.
	KindReject = "reject"
	// KindForget voids a submit: replay drops the pair. A cluster owner
	// writes it only into a follower's replica stream, after the submit
	// it replicated failed to admit locally. Journals of older daemons
	// also carry it for jobs they handed to a work-stealing thief. (Those
	// journals may also hold "grant" records; replay ignores them.)
	KindForget = "forget"
)

// Record is one journaled job transition. Only the fields relevant to
// the kind are set.
type Record struct {
	Kind    string         `json:"kind"`
	ID      string         `json:"id"`
	Time    string         `json:"time,omitempty"` // RFC3339Nano, informational
	IdemKey string         `json:"idem_key,omitempty"`
	Spec    *api.JobSpec   `json:"spec,omitempty"`
	State   api.JobState   `json:"state,omitempty"`
	Error   string         `json:"error,omitempty"`
	Result  *api.JobResult `json:"result,omitempty"`
}

// envelope is the on-disk line: the CRC guards rec byte-for-byte.
type envelope struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// Stats count journal activity since Open.
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Syncs is the number of fsync calls; Syncs << Appends under load is
	// the group commit working.
	Syncs int64
	// Replayed is the number of intact records recovered by Open.
	Replayed int
	// ReplaySkipped is the number of malformed or checksum-failing lines
	// Open skipped.
	ReplaySkipped int
}

// Journal is an open write-ahead journal. Safe for concurrent use.
type Journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	err     error // sticky write error, returned by every later append
	dirty   bool  // bytes buffered or written but not yet fsynced
	waiters []chan error

	kick      chan struct{}
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once

	appends atomic.Int64
	syncs   atomic.Int64

	replayed      []Record
	replaySkipped int
}

// FileName is the journal file inside the journal directory.
const FileName = "journal.jsonl"

// Open creates dir if needed, replays the existing journal (if any) and
// opens it for appending. The recovered records are available via
// Replayed; lines that failed the checksum or did not parse — a torn
// tail from a crash, or corruption — are skipped and counted, never
// fatal.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, FileName)
	recs, skipped, err := ReplayFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	// A crash can tear the final line mid-write, leaving no trailing
	// newline. Appending straight after those bytes would glue the next
	// record onto the torn line and corrupt it too, so start appends on a
	// fresh line.
	if !endsWithNewline(path) {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
	}
	j := &Journal{
		path:          path,
		f:             f,
		w:             bufio.NewWriterSize(f, 64*1024),
		kick:          make(chan struct{}, 1),
		quit:          make(chan struct{}),
		done:          make(chan struct{}),
		replayed:      recs,
		replaySkipped: skipped,
	}
	go j.syncer()
	return j, nil
}

// endsWithNewline reports whether the file is empty or its last byte is
// '\n'. Read errors count as true: the append path will surface them.
func endsWithNewline(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return true
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return true
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], fi.Size()-1); err != nil {
		return true
	}
	return b[0] == '\n'
}

// Replayed returns the records recovered by Open, in append order.
func (j *Journal) Replayed() []Record { return j.replayed }

// Stats snapshots the journal counters.
func (j *Journal) Stats() Stats {
	return Stats{
		Appends:       j.appends.Load(),
		Syncs:         j.syncs.Load(),
		Replayed:      len(j.replayed),
		ReplaySkipped: j.replaySkipped,
	}
}

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// Err returns the sticky write error, if any: once an append, flush or
// fsync has failed, every later append fails with the same error. A
// non-nil Err means the journal can no longer persist submissions —
// readiness probes use it to take the node out of rotation.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// encode renders the CRC-enveloped line for rec.
func encode(rec Record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: encode: %w", err)
	}
	line := make([]byte, 0, len(b)+32)
	line = append(line, `{"crc":`...)
	line = fmt.Appendf(line, "%d", crc32.ChecksumIEEE(b))
	line = append(line, `,"rec":`...)
	line = append(line, b...)
	line = append(line, '}', '\n')
	return line, nil
}

// Append writes rec and blocks until it is durable (flushed and
// fsynced). Concurrent appends share fsyncs: the syncer flushes every
// buffered record with one fsync and wakes all their waiters.
func (j *Journal) Append(rec Record) error {
	ch := make(chan error, 1)
	if err := j.append(rec, ch); err != nil {
		return err
	}
	return <-ch
}

// AppendAsync writes rec without waiting for durability: the record
// rides along with the next batched fsync (or Close). Use it for
// transitions that are safe to lose — a lost start or complete record
// only means the deterministic job is re-run on replay.
func (j *Journal) AppendAsync(rec Record) error {
	return j.append(rec, nil)
}

func (j *Journal) append(rec Record, waiter chan error) error {
	line, err := encode(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	if _, werr := j.w.Write(line); werr != nil {
		j.err = fmt.Errorf("journal: append: %w", werr)
		err := j.err
		j.mu.Unlock()
		return err
	}
	j.dirty = true
	if waiter != nil {
		j.waiters = append(j.waiters, waiter)
	}
	j.mu.Unlock()
	j.appends.Add(1)
	select {
	case j.kick <- struct{}{}:
	default: // a sync is already pending; it will cover this record
	}
	return nil
}

// syncer is the group-commit loop: each round flushes the buffer, takes
// the current waiters, fsyncs once, and wakes them all.
func (j *Journal) syncer() {
	defer close(j.done)
	for {
		select {
		case <-j.kick:
			j.syncOnce()
		case <-j.quit:
			j.syncOnce() // drain whatever raced with Close
			return
		}
	}
}

// syncOnce flushes and fsyncs everything buffered so far, waking the
// waiters whose records it covered.
func (j *Journal) syncOnce() {
	j.mu.Lock()
	if !j.dirty && len(j.waiters) == 0 {
		j.mu.Unlock()
		return
	}
	if j.err == nil {
		if ferr := j.w.Flush(); ferr != nil {
			j.err = fmt.Errorf("journal: flush: %w", ferr)
		}
	}
	waiters := j.waiters
	j.waiters = nil
	j.dirty = false
	err := j.err
	j.mu.Unlock()

	if err == nil {
		if serr := j.f.Sync(); serr != nil {
			j.mu.Lock()
			j.err = fmt.Errorf("journal: fsync: %w", serr)
			err = j.err
			j.mu.Unlock()
		}
	}
	j.syncs.Add(1)
	for _, ch := range waiters {
		ch <- err
	}
}

// Sync forces a flush and fsync of everything appended so far.
func (j *Journal) Sync() error {
	ch := make(chan error, 1)
	j.mu.Lock()
	if j.err != nil {
		err := j.err
		j.mu.Unlock()
		return err
	}
	j.waiters = append(j.waiters, ch)
	j.mu.Unlock()
	select {
	case j.kick <- struct{}{}:
	default:
	}
	return <-ch
}

// Close flushes, fsyncs and closes the journal. Appends after Close
// fail with a sticky "closed" error.
func (j *Journal) Close() error {
	var err, cerr error
	j.closeOnce.Do(func() {
		err = j.Sync()
		// Seal the journal before stopping the syncer: an Append that
		// passed the error check after the Sync above would otherwise
		// register a waiter after the syncer's final round, and nothing
		// would ever wake it. With the sticky error set first, later
		// appends fail fast, and any waiter that slipped in between is
		// woken with this error by the syncer's post-quit drain.
		j.mu.Lock()
		if j.err == nil {
			j.err = fmt.Errorf("journal: closed")
		}
		j.mu.Unlock()
		close(j.quit) // the syncer drains one final time and exits
		<-j.done
		j.mu.Lock()
		cerr = j.f.Close()
		j.mu.Unlock()
	})
	if err != nil {
		return err
	}
	return cerr
}

// ReplayFile reads every intact record of the journal at path. A missing
// file is an empty journal. Skipped is the number of lines dropped for
// failing to parse or failing the checksum; an error is returned only
// for I/O failures.
func ReplayFile(path string) (recs []Record, skipped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var env envelope
		if json.Unmarshal(line, &env) != nil || crc32.ChecksumIEEE(env.Rec) != env.CRC {
			skipped++
			continue
		}
		var rec Record
		if json.Unmarshal(env.Rec, &rec) != nil {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	return recs, skipped, nil
}
