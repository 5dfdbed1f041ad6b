package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mrts/internal/service/api"
	"mrts/internal/service/journal"
)

// TestJournalReplayStatsOnMetrics pins the /metrics surface of crash
// recovery: after a restart over a journal holding intact records, a
// corrupt line, and an unfinished job, the endpoint reports how many
// records replayed, how many lines were skipped, and how many jobs were
// re-enqueued — not just the startup log.
func TestJournalReplayStatsOnMetrics(t *testing.T) {
	dir := t.TempDir()
	spec := simSpec()

	j1, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Two intact records of an unfinished job (submit + start, no
	// complete): the crash case that re-enqueues on replay.
	if err := j1.Append(journal.Record{Kind: journal.KindSubmit, ID: "jreplay1", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Append(journal.Record{Kind: journal.KindStart, ID: "jreplay1"}); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn tail: half a record, no valid CRC envelope.
	f, err := os.OpenFile(filepath.Join(dir, journal.FileName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"crc":123,"rec":{"kind":"sub`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 1, Journal: j2})
	defer s.Close()

	job, ok := s.Job("jreplay1")
	if !ok {
		t.Fatal("unfinished job not recovered")
	}
	if err := s.Wait(context.Background(), job); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"mrts_journal_replayed_total 2\n",
		"mrts_journal_replay_skipped_total 1\n",
		"mrts_jobs_recovered_total 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestJournalReplaysLegacyGrantAndForget replays a journal written by a
// daemon that still handed stolen jobs over: its steal grants carry
// fence and peer fields, and a forget voids the submit of a job another
// node took. Replay must fold it as that daemon did: a forget drops its
// job, and a grant changes nothing, so a granted job with no complete
// record re-runs and a completed one keeps its result.
func TestJournalReplaysLegacyGrantAndForget(t *testing.T) {
	dir := t.TempDir()
	spec, err := json.Marshal(simSpec())
	if err != nil {
		t.Fatal(err)
	}
	var file strings.Builder
	for _, rec := range []string{
		`{"kind":"submit","id":"jgranted","spec":` + string(spec) + `}`,
		`{"kind":"grant","id":"jgranted","fence":7,"peer":"b"}`,
		`{"kind":"submit","id":"jforgot","spec":` + string(spec) + `}`,
		`{"kind":"grant","id":"jforgot","fence":8,"peer":"c"}`,
		`{"kind":"forget","id":"jforgot"}`,
		`{"kind":"submit","id":"jdone","spec":` + string(spec) + `}`,
		`{"kind":"grant","id":"jdone","fence":9,"peer":"b"}`,
		`{"kind":"complete","id":"jdone","state":"done","result":{"text":"legacy"}}`,
	} {
		fmt.Fprintf(&file, "{\"crc\":%d,\"rec\":%s}\n", crc32.ChecksumIEEE([]byte(rec)), rec)
	}
	if err := os.WriteFile(filepath.Join(dir, journal.FileName), []byte(file.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := jr.Stats(); st.Replayed != 8 || st.ReplaySkipped != 0 {
		t.Fatalf("replayed %d records, skipped %d; want 8 and 0", st.Replayed, st.ReplaySkipped)
	}
	s := New(Options{Workers: 1, Journal: jr, ExecOverride: func(context.Context, api.JobSpec) (*api.JobResult, error) {
		return &api.JobResult{Text: "rerun"}, nil
	}})
	defer s.Close()

	if _, ok := s.Job("jforgot"); ok {
		t.Error("a forget record no longer voids its submit")
	}
	if n := s.RecoveredJobs(); n != 1 {
		t.Errorf("re-enqueued %d jobs, want 1 (the granted job without a complete record)", n)
	}
	for id, want := range map[string]string{"jgranted": "rerun", "jdone": "legacy"} {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost on replay", id)
		}
		if err := s.Wait(context.Background(), job); err != nil {
			t.Fatal(err)
		}
		if st := s.Status(job, true); st.State != api.StateDone || st.Result == nil || st.Result.Text != want {
			t.Errorf("job %s replayed as %s %+v, want done with text %q", id, st.State, st.Result, want)
		}
	}
}
