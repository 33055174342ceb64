package server

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"

	rstore "repro/internal/store"
	"repro/internal/telemetry"
)

// openTestStore opens a result store in dir under a test fingerprint
// and hands it to the caller's Config.
func openTestStore(t *testing.T, dir string) *rstore.Store {
	t.Helper()
	st, err := rstore.Open(rstore.Options{Dir: dir, Fingerprint: "sim-test", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// byIndex sorts a result stream into canonical config order and returns
// the per-index result fingerprints.
func byIndex(t *testing.T, events []resultEvent) []string {
	t.Helper()
	sort.Slice(events, func(a, b int) bool { return events[a].Index < events[b].Index })
	out := make([]string, len(events))
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("stream has gaps: event %d carries index %d", i, ev.Index)
		}
		out[i] = fingerprint(t, ev.Result)
	}
	return out
}

// TestServeDuplicateTenantsComputeOnce is the duplicate-submission
// regression: two tenants submitting the identical campaign must not
// both burn pool workers on the same configs — the store's single-flight
// collapses the duplicates — while both result streams still receive
// the full, byte-identical result set and both campaigns finish done.
// The store put count is the proof of single execution: one Put per
// distinct config, regardless of how the two campaigns raced.
func TestServeDuplicateTenantsComputeOnce(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	_, ts := newTestServer(t, Config{Workers: 2, ResultStore: st})

	spec := tinySpec(0.05, 0.3, 0.7) // 4 distinct configs (3 points + baseline)
	before := telemetry.StoreSnapshot()
	a := submitOK(t, ts, "alice", spec)
	b := submitOK(t, ts, "bob", spec)
	waitState(t, ts, a.ID, StateDone)
	waitState(t, ts, b.ID, StateDone)
	after := telemetry.StoreSnapshot()

	evA, finalA := streamResults(t, ts, a.ID)
	evB, finalB := streamResults(t, ts, b.ID)
	if finalA == nil || finalB == nil {
		t.Fatal("a stream ended without its final status line")
	}
	fpA, fpB := byIndex(t, evA), byIndex(t, evB)
	if len(fpA) != len(fpB) || len(fpA) == 0 {
		t.Fatalf("stream sizes diverge: %d vs %d", len(fpA), len(fpB))
	}
	for i := range fpA {
		if fpA[i] != fpB[i] {
			t.Fatalf("tenants diverged at run %d:\nalice %s\nbob   %s", i, fpA[i], fpB[i])
		}
	}
	// Each distinct config was computed (and therefore stored) exactly
	// once across both tenants.
	if d := after["puts"] - before["puts"]; d != int64(len(fpA)) {
		t.Fatalf("puts delta = %d, want %d (each config computed once)", d, len(fpA))
	}
	if d := (after["hits"] - before["hits"]) + (after["singleflight_shared"] - before["singleflight_shared"]); d != int64(len(fpA)) {
		t.Fatalf("hit+shared delta = %d, want %d (the duplicate campaign served entirely without compute)", d, len(fpA))
	}
}

// TestServeStoreAcrossRestart: a campaign resubmitted to a fresh server
// process sharing the same store directory is served from the store —
// zero new computations — with a byte-identical stream.
func TestServeStoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := rstore.Open(rstore.Options{Dir: dir, Fingerprint: "sim-test"})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 2, ResultStore: st})
	spec := tinySpec(0.1, 0.5)
	first := submitOK(t, ts, "alice", spec)
	waitState(t, ts, first.ID, StateDone)
	evFirst, _ := streamResults(t, ts, first.ID)
	ts.Close()
	st.Close()

	st2, err := rstore.Open(rstore.Options{Dir: dir, Fingerprint: "sim-test"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 2, ResultStore: st2})
	before := telemetry.StoreSnapshot()
	second := submitOK(t, ts2, "carol", spec)
	waitState(t, ts2, second.ID, StateDone)
	after := telemetry.StoreSnapshot()
	evSecond, _ := streamResults(t, ts2, second.ID)

	fpFirst, fpSecond := byIndex(t, evFirst), byIndex(t, evSecond)
	if len(fpFirst) != len(fpSecond) {
		t.Fatalf("stream sizes diverge: %d vs %d", len(fpFirst), len(fpSecond))
	}
	for i := range fpFirst {
		if fpFirst[i] != fpSecond[i] {
			t.Fatalf("restarted service diverged at run %d", i)
		}
	}
	if d := after["hits"] - before["hits"]; d != int64(len(fpFirst)) {
		t.Fatalf("hits delta = %d, want %d (everything from the store)", d, len(fpFirst))
	}
	if d := after["puts"] - before["puts"]; d != 0 {
		t.Fatalf("puts delta = %d, want 0 (nothing recomputed)", d)
	}
}

// TestServeFinishedStreamGoneWhenResultsEvicted: a finished campaign
// whose results a tiny-budget store has since evicted answers its
// results URL with 410 Gone, naming how many results are missing,
// instead of a silently partial stream; the resubmission gets back what
// is still stored and recomputes the rest.
func TestServeFinishedStreamGoneWhenResultsEvicted(t *testing.T) {
	// One record per segment and a one-byte budget: every append evicts
	// every segment but the one being written.
	st, err := rstore.Open(rstore.Options{Dir: t.TempDir(), Fingerprint: "sim-test", BudgetBytes: 1, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := newTestServer(t, Config{Workers: 1, ResultStore: st})

	first := submitOK(t, ts, "alice", tinySpec())
	if done := waitState(t, ts, first.ID, StateDone); done.Results != 3 {
		t.Fatalf("finished campaign received %d results, want 3", done.Results)
	}
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + first.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("results of an evicted campaign: status %d (%s), want 410", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "2 of the campaign's 3 results") {
		t.Fatalf("410 body %q does not name the 2 missing results", body)
	}

	before := telemetry.StoreSnapshot()
	again := submitOK(t, ts, "alice", tinySpec())
	events, final := streamResults(t, ts, again.ID)
	if len(events) != 3 || final == nil || final["state"] != string(StateDone) {
		t.Fatalf("resubmission streamed %d results (final %v), want all 3", len(events), final)
	}
	after := telemetry.StoreSnapshot()
	if hits, puts := after["hits"]-before["hits"], after["puts"]-before["puts"]; hits != 1 || puts != 2 {
		t.Fatalf("resubmission hit %d and stored %d, want the 1 surviving result hit and 2 recomputed", hits, puts)
	}
}
