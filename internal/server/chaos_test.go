package server

import (
	"net/http"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// Service-layer chaos: each injected fault must produce a clean typed
// refusal or a recoverable degraded response — never a half-admitted
// campaign, a corrupt manifest, or a wrong stream.

// TestChaosServerAdmitFault injects a failure into the admission check
// itself: the submission is refused 500 (counted as a fault refusal),
// nothing is recorded, and the next submission goes through.
func TestChaosServerAdmitFault(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if err := fault.Apply("seed=1;server.admit:every=1,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	refused := telemetry.Server.RefusedFault.Load()

	resp := submit(t, ts, "alice", tinySpec(0.5))
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted admission: status %d, want 500", resp.StatusCode)
	}
	if got := telemetry.Server.RefusedFault.Load(); got != refused+1 {
		t.Errorf("RefusedFault %d, want %d", got, refused+1)
	}
	if got := len(s.Store().Campaigns()); got != 0 {
		t.Fatalf("faulted admission left %d campaigns in the manifest", got)
	}

	// The fault's limit is spent: the service has recovered.
	st := submitOK(t, ts, "alice", tinySpec(0.5))
	waitState(t, ts, st.ID, StateDone)
}

// TestChaosServerManifestFault injects a failure into the durable
// manifest write under an admission: the submission fails 500, the
// in-memory manifest rolls back (no ghost campaign), and the retry
// succeeds.
func TestChaosServerManifestFault(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	if err := fault.Apply("seed=1;server.manifest:every=1,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	merrs := telemetry.Server.ManifestErrors.Load()

	resp := submit(t, ts, "alice", tinySpec(0.5))
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted manifest write: status %d, want 500", resp.StatusCode)
	}
	if got := telemetry.Server.ManifestErrors.Load(); got != merrs+1 {
		t.Errorf("ManifestErrors %d, want %d", got, merrs+1)
	}
	if got := len(s.Store().Campaigns()); got != 0 {
		t.Fatalf("failed manifest write left %d ghost campaigns", got)
	}

	st := submitOK(t, ts, "alice", tinySpec(0.5))
	waitState(t, ts, st.ID, StateDone)
	if _, ok := s.Store().Get(st.ID); !ok {
		t.Fatal("recovered submission missing from the manifest")
	}
}

// TestChaosServerStreamWriteFault injects a failure into a result
// stream write: the stream aborts mid-replay, the durable results are
// untouched, and a reconnect replays the complete set.
func TestChaosServerStreamWriteFault(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitOK(t, ts, "alice", tinySpec()) // 3 runs
	waitState(t, ts, st.ID, StateDone)
	werrs := telemetry.Server.StreamWriteErrors.Load()

	// Kill the second write of the replay stream.
	if err := fault.Apply("seed=1;server.stream.write:every=1,after=1,limit=1"); err != nil {
		t.Fatal(err)
	}
	cut, final := streamResults(t, ts, st.ID)
	fault.Disable()
	if len(cut) != 1 || final != nil {
		t.Fatalf("faulted stream delivered %d results (final %v), want it cut after 1", len(cut), final)
	}
	if got := telemetry.Server.StreamWriteErrors.Load(); got != werrs+1 {
		t.Errorf("StreamWriteErrors %d, want %d", got, werrs+1)
	}

	// Reconnect: the full set replays from the result store.
	events, final2 := streamResults(t, ts, st.ID)
	if len(events) != 3 || final2 == nil {
		t.Fatalf("reconnect replayed %d results (final %v), want all 3", len(events), final2)
	}
}

// TestChaosServerDrainWithFaultyManifest fails a state transition made
// by hand on a finished campaign: SetState reports the injected fault
// and rolls the in-memory record back to the persisted done, and a
// server restarted over the same store resumes nothing and still
// replays the campaign's results. It drives neither a drain nor
// finalize; TestChaosServerFinalStateLostResumes covers a terminal
// state write lost inside finalize.
func TestChaosServerDrainWithFaultyManifest(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})
	st := submitOK(t, ts, "alice", tinySpec()) // 3 runs
	waitState(t, ts, st.ID, StateDone)

	// Now make the next manifest write fail and cancel a fresh
	// campaign: its terminal state cannot persist, so the manifest
	// keeps it active.
	st2 := submitOK(t, ts, "alice", tinySpec(0.7))
	waitState(t, ts, st2.ID, StateDone)
	if err := fault.Apply("seed=1;server.manifest:every=1"); err != nil {
		t.Fatal(err)
	}
	// A state transition under an injected manifest fault rolls back.
	if err := s.Store().SetState(st2.ID, StateCanceled, "test", nil, 0); err == nil {
		t.Fatal("SetState under manifest fault unexpectedly succeeded")
	}
	fault.Disable()
	meta, _ := s.Store().Get(st2.ID)
	if meta.State != StateDone {
		t.Fatalf("rolled-back state is %q, want the persisted %q", meta.State, StateDone)
	}
	s.Close()
	ts.Close()

	// A fresh server over the same store sees consistent state.
	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	if n := s2.Resume(); n != 0 {
		t.Fatalf("resumed %d campaigns, want 0 (both finished)", n)
	}
	events, _ := streamResults(t, ts2, st2.ID)
	if len(events) != 2 {
		t.Fatalf("restarted server replayed %d results, want 2", len(events))
	}
}

// TestChaosServerFinalStateNotStale holds a campaign's final manifest
// write open with a slow-disk delay and connects a result stream inside
// that window: the stream must still end with the campaign's real final
// state, never the "active" a not-yet-persisted manifest would report.
func TestChaosServerFinalStateNotStale(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	// Hit 1 is the admission's manifest write; hit 2 is the finalize
	// stall; the limit keeps the stalled write itself from failing.
	if err := fault.Apply("seed=1;server.manifest:every=1,after=1,limit=1,delay=300ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	st := submitOK(t, ts, "alice", tinySpec())
	deadline := time.Now().Add(60 * time.Second)
	for fault.Snapshot()[fault.SiteServerManifest].Fires == 0 {
		if time.Now().After(deadline) {
			t.Fatal("campaign never reached its final manifest write")
		}
		time.Sleep(time.Millisecond)
	}
	events, final := streamResults(t, ts, st.ID)
	if len(events) != 3 || final == nil {
		t.Fatalf("stream inside the finalize window delivered %d results (final %v), want 3", len(events), final)
	}
	if final["state"] != string(StateDone) {
		t.Fatalf("stream ended with state %v, want %q", final["state"], StateDone)
	}
}
