package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
	rstore "repro/internal/store"
	"repro/internal/telemetry"
)

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

// segments concatenates a result store's segment files.
func segments(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
	}
	return b.String()
}

// metaJSON renders campaign id's manifest record.
func metaJSON(t *testing.T, st *Store, id string) string {
	t.Helper()
	m, ok := st.Get(id)
	if !ok {
		t.Fatalf("campaign %s missing from the manifest", id)
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeRestartLeavesFinishedCampaignsAlone checks a finished
// campaign is finished for good: two restarts over the same data
// directory resume nothing, write nothing to the result store and keep
// every finished campaign's manifest record — a canceled campaign's
// included, which records exactly the two results it received.
func TestServeRestartLeavesFinishedCampaignsAlone(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, NoFanout: true})
	done := submitOK(t, ts, "alice", tinySpec())
	waitState(t, ts, done.ID, StateDone)

	// A canceled campaign with stored work: the first two runs
	// complete, the third hangs until the owner's cancel is in, and the
	// rest observe the canceled context.
	if err := fault.Apply("seed=1;worker.hang:every=1,after=2,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	// Its own seed keeps it from sharing a stored run with alice's.
	bobSpec := tinySpec(0.05, 0.1, 0.3, 0.5, 0.7)
	bobSpec.Seed = 2
	canceled := submitOK(t, ts, "bob", bobSpec)
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

	want := map[string]string{}
	for _, id := range []string{done.ID, canceled.ID} {
		want[id] = metaJSON(t, s.Store(), id)
	}
	if m, _ := s.Store().Get(canceled.ID); m.Results != 2 {
		t.Fatalf("canceled campaign received %d results, want 2", m.Results)
	}
	stored := segments(t, filepath.Join(dir, "results"))

	for restart := 1; restart <= 2; restart++ {
		before := telemetry.StoreSnapshot()
		s2, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
		if n := s2.Resume(); n != 0 {
			t.Fatalf("restart %d resumed %d campaigns, want 0", restart, n)
		}
		waitIdle(t, s2)
		s2.Close()
		if d := telemetry.StoreSnapshot()["puts"] - before["puts"]; d != 0 {
			t.Fatalf("restart %d stored %d results, want 0", restart, d)
		}
		for id, w := range want {
			if got := metaJSON(t, s2.Store(), id); got != w {
				t.Fatalf("restart %d rewrote finished campaign %s:\n got %s\nwant %s", restart, id, got, w)
			}
		}
		if segments(t, filepath.Join(dir, "results")) != stored {
			t.Fatalf("restart %d rewrote the result store", restart)
		}
	}
}

// TestServeCanceledStreamGoneOnlyForOwnResults: a canceled campaign's
// finished stream serves exactly the results it received, even after
// another campaign has stored the runs it never got to, and evicting one
// of its own results turns that stream into 410 Gone.
func TestServeCanceledStreamGoneOnlyForOwnResults(t *testing.T) {
	dir := t.TempDir()
	openResults := func() *rstore.Store {
		// One record per segment, so a single result can be evicted by
		// removing its segment file.
		st, err := rstore.Open(rstore.Options{Dir: filepath.Join(dir, "results"), Fingerprint: "sim-test", SegmentBytes: 1, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := openResults()
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, NoFanout: true, ResultStore: st})

	// The first two runs complete, the third hangs until the owner's
	// cancel is in, and the rest observe the canceled context.
	if err := fault.Apply("seed=1;worker.hang:every=1,after=2,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	spec := tinySpec(0.05, 0.1, 0.3, 0.5, 0.7)
	canceled := submitOK(t, ts, "bob", spec)
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
	fault.Disable() // release the hung run
	waitState(t, ts, canceled.ID, StateCanceled)
	waitIdle(t, s)
	meta, _ := s.Store().Get(canceled.ID)
	if meta.Results != 2 || len(meta.Received) != 2 {
		t.Fatalf("canceled campaign persisted %d results at indices %v, want 2", meta.Results, meta.Received)
	}
	own, _ := streamResults(t, ts, canceled.ID)

	// Another tenant's identical campaign stores every remaining run.
	other := submitOK(t, ts, "alice", spec)
	waitState(t, ts, other.ID, StateDone)
	events, final := streamResults(t, ts, canceled.ID)
	if final == nil || final["state"] != string(StateCanceled) {
		t.Fatalf("canceled stream ended %v", final)
	}
	got := resultsByIndex(t, events)
	if want := resultsByIndex(t, own); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != 2 {
		t.Fatalf("canceled stream served indices %v after another campaign stored the rest, want exactly %v",
			keysOf(got), meta.Received)
	}
	for _, i := range meta.Received {
		if _, ok := got[i]; !ok {
			t.Fatalf("canceled stream lacks received index %d", i)
		}
	}

	// Evict one of its own results: drop the segment holding it.
	ts.Close()
	s.Close()
	st.Close()
	paths, err := filepath.Glob(filepath.Join(dir, "results", "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	evicted := 0
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), events[0].Key) {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("result %s found in %d segments, want 1", events[0].Key, evicted)
	}
	st2 := openResults()
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir, ResultStore: st2})
	resp, err = http.Get(ts2.URL + "/v1/campaigns/" + canceled.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || !strings.Contains(string(body), "1 of the campaign's 2 results") {
		t.Fatalf("stream after evicting one of its results: status %d (%s), want 410 naming 1 of 2", resp.StatusCode, body)
	}
}

// keysOf lists a result map's indices in order.
func keysOf(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TestChaosServerFinalStateLostResumes stalls and then fails finalize's
// terminal-state write. During the stall every result is already in the
// result store; after the failure the manifest keeps the campaign
// active. A restart resumes it with every run already stored — every
// result comes back from the store, none is simulated or stored again —
// and the campaign ends done with a stream identical to the live one.
func TestChaosServerFinalStateLostResumes(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	// Hit 1 is the admission's manifest write. Finalize's SetState then
	// stalls (hit 2) and its write fails (hit 3).
	if err := fault.Apply("seed=1;server.manifest:every=1,after=1,limit=2,delay=200ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	spec := tinySpec()
	st := submitOK(t, ts, "alice", spec)
	deadline := time.Now().Add(60 * time.Second)
	for fault.Snapshot()[fault.SiteServerManifest].Fires == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never reached its final manifest write")
		}
		time.Sleep(time.Millisecond)
	}
	for _, cfg := range spec.Configs() {
		key, err := runner.ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.cfg.ResultStore.Size(key) == 0 {
			t.Fatalf("the terminal state write started before run %s was stored", key[:8])
		}
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

	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	before := telemetry.StoreSnapshot()
	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir, Logf: logf})
	if n := s2.Resume(); n != 1 {
		t.Fatalf("resumed %d campaigns, want 1", n)
	}
	waitState(t, ts2, st.ID, StateDone)
	waitIdle(t, s2)
	if n := s2.completed.Load(); n != 0 {
		t.Fatalf("resume simulated %d runs again, want 0", n)
	}
	if d := telemetry.StoreSnapshot()["puts"] - before["puts"]; d != 0 {
		t.Fatalf("resume stored %d results again, want 0", d)
	}
	mu.Lock()
	log := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(log, "resume: 3 of 3 runs already stored") {
		t.Fatalf("resume did not report every run stored:\n%s", log)
	}
	resumed, final2 := streamResults(t, ts2, st.ID)
	if final2 == nil || final2["state"] != string(StateDone) {
		t.Fatalf("resumed stream final line %v, want state %q", final2, StateDone)
	}
	for _, ev := range resumed {
		if !ev.FromStore {
			t.Errorf("resumed result %d not from the store", ev.Index)
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
}
