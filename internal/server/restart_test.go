package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// journalSnap is a journal's bytes and modification time.
type journalSnap struct {
	data []byte
	mod  time.Time
}

func snapJournal(t *testing.T, path string) journalSnap {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return journalSnap{data: data, mod: fi.ModTime()}
}

// waitIdle waits for every campaign goroutine of s to return.
func waitIdle(t *testing.T, s *Server) {
	t.Helper()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-time.After(60 * time.Second):
		t.Fatal("campaign goroutines did not return")
	}
}

// isCompacted reports whether the journal at path is already in its
// compacted form: compacting a copy of it changes no byte.
func isCompacted(t *testing.T, path string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp := filepath.Join(t.TempDir(), "copy.journal")
	if err := os.WriteFile(cp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.CompactJournal(cp); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(data, again)
}

// resultsByIndex renders each streamed result as JSON, by result index.
func resultsByIndex(t *testing.T, events []resultEvent) map[int]string {
	t.Helper()
	out := make(map[int]string, len(events))
	for _, ev := range events {
		b, err := json.Marshal(ev.Result)
		if err != nil {
			t.Fatal(err)
		}
		out[ev.Index] = string(b)
	}
	return out
}

// TestServeRestartLeavesFinishedJournalsAlone checks a finished
// campaign's journal is compacted once, as the campaign finishes, and
// never again: two restarts over the same data directory keep every
// finished journal's bytes and modification time, compact nothing and
// resume nothing.
func TestServeRestartLeavesFinishedJournalsAlone(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, NoFanout: true})
	done := submitOK(t, ts, "alice", tinySpec())
	waitState(t, ts, done.ID, StateDone)

	// A canceled campaign with journaled work: the first two runs
	// complete, the third hangs until the owner's cancel is in, and the
	// rest observe the canceled context.
	if err := fault.Apply("seed=1;worker.hang:every=1,after=2,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	canceled := submitOK(t, ts, "bob", tinySpec(0.05, 0.1, 0.3, 0.5, 0.7))
	deadline := time.Now().Add(60 * time.Second)
	for fault.Snapshot()[fault.SiteWorkerHang].Fires == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the third run never started")
		}
		time.Sleep(time.Millisecond)
	}
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+canceled.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	fault.Disable() // release the hung run
	waitState(t, ts, canceled.ID, StateCanceled)
	waitIdle(t, s)
	s.Close()
	ts.Close()

	want := map[string]journalSnap{}
	for _, id := range []string{done.ID, canceled.ID} {
		path := s.Store().JournalPath(id)
		if !isCompacted(t, path) {
			t.Fatalf("campaign %s finished with an uncompacted journal", id)
		}
		want[id] = snapJournal(t, path)
	}
	if n := bytes.Count(want[canceled.ID].data, []byte("\n")); n != 2 {
		t.Fatalf("canceled campaign journaled %d runs, want 2", n)
	}

	compactions := telemetry.Server.AutoCompactions.Load()
	for restart := 1; restart <= 2; restart++ {
		s2, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
		if n := s2.Resume(); n != 0 {
			t.Fatalf("restart %d resumed %d campaigns, want 0", restart, n)
		}
		waitIdle(t, s2)
		s2.Close()
		for id, w := range want {
			got := snapJournal(t, s2.Store().JournalPath(id))
			if !bytes.Equal(got.data, w.data) || !got.mod.Equal(w.mod) {
				t.Fatalf("restart %d rewrote the journal of finished campaign %s", restart, id)
			}
		}
		if got := telemetry.Server.AutoCompactions.Load(); got != compactions {
			t.Fatalf("restart %d compacted %d journals, want 0", restart, got-compactions)
		}
	}
}

// TestChaosServerFinalStateLostResumes stalls and then fails finalize's
// terminal-state write. During the stall the journal is already
// compacted; after the failure the manifest keeps the campaign active
// over that compacted journal. A restart resumes it with nothing left
// to run — every result comes back from the journal, none is simulated
// again — and the campaign ends done with a stream identical to the
// live one.
func TestChaosServerFinalStateLostResumes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	// Hit 1 is the admission's manifest write. Finalize's SetState then
	// stalls (hit 2) and its write fails (hit 3).
	if err := fault.Apply("seed=1;server.manifest:every=1,after=1,limit=2,delay=200ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	compactions := telemetry.Server.AutoCompactions.Load()
	st := submitOK(t, ts, "alice", tinySpec())
	path := s.Store().JournalPath(st.ID)
	deadline := time.Now().Add(60 * time.Second)
	for fault.Snapshot()[fault.SiteServerManifest].Fires == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never reached its final manifest write")
		}
		time.Sleep(time.Millisecond)
	}
	if got := telemetry.Server.AutoCompactions.Load(); got != compactions+1 || !isCompacted(t, path) {
		t.Fatal("the terminal state write started before the journal was compacted")
	}
	live, final := streamResults(t, ts, st.ID)
	if len(live) != 3 || final == nil {
		t.Fatalf("live stream delivered %d results (final %v), want 3", len(live), final)
	}
	waitIdle(t, s)
	fault.Disable()
	s.Close()
	ts.Close()

	meta, ok := s.Store().Get(st.ID)
	if !ok || meta.State != StateActive {
		t.Fatalf("lost final write left state %q, want %q", meta.State, StateActive)
	}
	if got := telemetry.Server.AutoCompactions.Load(); got != compactions+1 {
		t.Fatalf("finalize compacted %d journals, want 1", got-compactions)
	}
	compacted := snapJournal(t, path)

	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	if n := s2.Resume(); n != 1 {
		t.Fatalf("resumed %d campaigns, want 1", n)
	}
	waitState(t, ts2, st.ID, StateDone)
	waitIdle(t, s2)
	if n := s2.completed.Load(); n != 0 {
		t.Fatalf("resume simulated %d runs again, want 0", n)
	}
	resumed, final2 := streamResults(t, ts2, st.ID)
	if final2 == nil || final2["state"] != string(StateDone) {
		t.Fatalf("resumed stream final line %v, want state %q", final2, StateDone)
	}
	for _, ev := range resumed {
		if !ev.FromJournal {
			t.Errorf("resumed result %d not from the journal", ev.Index)
		}
	}
	want, got := resultsByIndex(t, live), resultsByIndex(t, resumed)
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d results, live had %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("result %d differs between the live and the resumed stream", i)
		}
	}
	if again := snapJournal(t, path); !bytes.Equal(again.data, compacted.data) {
		t.Fatal("re-finalizing changed the compacted journal's bytes")
	}
}
