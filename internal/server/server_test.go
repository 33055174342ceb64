package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tinySpec is a campaign small enough for a unit test: one workload,
// len(points)+1 runs of 50k instructions each.
func tinySpec(points ...float64) SweepSpec {
	if len(points) == 0 {
		points = []float64{0.05, 0.3}
	}
	return SweepSpec{
		Workloads: []string{"453.povray"}, Points: points,
		WarmupInstrs: 20_000, ROIInstrs: 50_000, Seed: 1,
	}
}

// fingerprint is a result's identity with the one non-deterministic
// field (wall time) removed.
func fingerprint(t *testing.T, r *sim.Result) string {
	t.Helper()
	cp := *r
	cp.WallTime = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.ResultStore == nil {
		// pinted's default: the result store under the data directory.
		cfg.ResultStore = openTestStore(t, filepath.Join(cfg.DataDir, "results"))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		// A campaign whose final state a test already saw may still be
		// retiring; let its goroutine return before the data dir goes.
		idle := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(idle)
		}()
		select {
		case <-idle:
		case <-time.After(10 * time.Second):
		}
	})
	return s, ts
}

// submit POSTs a spec and returns the response; the caller checks the
// status code.
func submit(t *testing.T, ts *httptest.Server, tenant string, spec SweepSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// submitOK submits and decodes a 201 response.
func submitOK(t *testing.T, ts *httptest.Server, tenant string, spec SweepSpec) campaignStatus {
	t.Helper()
	resp := submit(t, ts, tenant, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		t.Fatalf("submit: status %d: %s", resp.StatusCode, buf.String())
	}
	var st campaignStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// getStatus fetches one campaign's status.
func getStatus(t *testing.T, ts *httptest.Server, id string) (campaignStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st campaignStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// waitState polls until the campaign reaches want or the deadline hits.
func waitState(t *testing.T, ts *httptest.Server, id string, want CampaignState) campaignStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, code := getStatus(t, ts, id)
		if code == http.StatusOK && st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s: state %q (http %d), want %q", id, st.State, code, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamResults reads a campaign's NDJSON result stream to the end and
// returns the events plus the final status line (nil if the stream was
// cut before it).
func streamResults(t *testing.T, ts *httptest.Server, id string) ([]resultEvent, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: status %d", resp.StatusCode)
	}
	var events []resultEvent
	var final map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe map[string]any
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if _, done := probe["done"]; done {
			final = probe
			break
		}
		var ev resultEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	return events, final
}

// TestServeCampaignLifecycle walks the happy path end to end: submit,
// stream live results, finish done with the results it received in the
// manifest, and replay the complete stream from the result store on
// reconnect with identical results. The data directory then holds the
// manifest and the store, and nothing else.
func TestServeCampaignLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, DataDir: dir})

	spec := tinySpec()
	st := submitOK(t, ts, "alice", spec)
	if st.Runs != spec.Runs() || st.Runs != 3 {
		t.Fatalf("admitted %d runs, want 3", st.Runs)
	}

	live, final := streamResults(t, ts, st.ID)
	if len(live) != 3 {
		t.Fatalf("live stream delivered %d results, want 3", len(live))
	}
	if final == nil || final["state"] != string(StateDone) {
		t.Fatalf("live stream final line %v, want done/%s", final, StateDone)
	}
	done := waitState(t, ts, st.ID, StateDone)
	if done.Results != 3 || done.ResultBytes <= 0 {
		t.Fatalf("finished campaign recorded %d results of %d bytes, want 3 of some", done.Results, done.ResultBytes)
	}

	// Reconnect after completion: the stream replays from the store.
	replay, final2 := streamResults(t, ts, st.ID)
	if len(replay) != 3 || final2 == nil || final2["state"] != string(StateDone) {
		t.Fatalf("replay stream: %d results, final %v", len(replay), final2)
	}
	liveByKey := make(map[string]string)
	for _, ev := range live {
		liveByKey[ev.Key] = fingerprint(t, ev.Result)
	}
	for _, ev := range replay {
		if !ev.FromStore {
			t.Errorf("replayed result %s not marked from_store", ev.Key)
		}
		if liveByKey[ev.Key] != fingerprint(t, ev.Result) {
			t.Errorf("result %s diverged between live stream and store replay", ev.Key)
		}
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "manifest.json results" {
		t.Fatalf("data directory holds %v, want only the manifest and the result store", names)
	}
}

// TestServeSampledCampaign runs a campaign submitted with
// "sample": true end to end: the profiling pre-pass and every run flow
// through the shared pool, each streamed result carries its sampling
// stats and error bounds, and the store replay preserves them.
func TestServeSampledCampaign(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	spec := tinySpec()
	spec.Sample = true
	st := submitOK(t, ts, "alice", spec)

	live, final := streamResults(t, ts, st.ID)
	if len(live) != 3 || final == nil || final["state"] != string(StateDone) {
		t.Fatalf("sampled campaign streamed %d results, final %v", len(live), final)
	}
	for _, ev := range live {
		if ev.Result.Sampled == nil {
			t.Errorf("result %s has no sampling stats", ev.Key)
			continue
		}
		if ev.Result.Sampled.InstrsSkipped == 0 {
			t.Errorf("result %s skipped nothing — sampling did not engage", ev.Key)
		}
	}
	waitState(t, ts, st.ID, StateDone)
	replay, _ := streamResults(t, ts, st.ID)
	for _, ev := range replay {
		if ev.Result.Sampled == nil {
			t.Errorf("store replay of %s lost its sampling stats", ev.Key)
		}
	}
}

// wedge occupies every pool worker behind a gate, so a test can submit
// campaigns and assert admission and queue state without racing their
// execution. The returned release function frees the workers; it is
// also registered as a cleanup so a failing test cannot deadlock
// shutdown.
func wedge(t *testing.T, s *Server) (release func()) {
	t.Helper()
	gate := make(chan struct{})
	started := make(chan struct{}, s.pool.Workers())
	q := s.pool.NewQueue("test-wedge", 1)
	for i := 0; i < s.pool.Workers(); i++ {
		q.Submit(func(shed bool) {
			if !shed {
				started <- struct{}{}
				<-gate
			}
		})
	}
	for i := 0; i < s.pool.Workers(); i++ {
		<-started
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			close(gate)
			q.Close()
		})
	}
	t.Cleanup(release)
	return release
}

// waitQueued polls until at least n tasks are queued on the pool.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for s.pool.Queued() < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool queued %d tasks, want %d", s.pool.Queued(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServeFairCompletion is the fair-scheduling smoke: on a one-worker
// pool, a small campaign submitted after a 3x larger one still finishes
// first, because stride scheduling interleaves their runs instead of
// draining the first queue FIFO.
func TestServeFairCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, NoFanout: true})
	release := wedge(t, s)

	big := submitOK(t, ts, "alice", tinySpec(0.05, 0.1, 0.3, 0.5, 0.7)) // 6 runs
	small := submitOK(t, ts, "bob", tinySpec(0.5))                      // 2 runs
	waitQueued(t, s, 8)                                                 // both campaigns fully enqueued
	release()

	bigDone := waitState(t, ts, big.ID, StateDone)
	smallDone := waitState(t, ts, small.ID, StateDone)
	if !smallDone.Finished.Before(bigDone.Finished) {
		t.Fatalf("small campaign finished at %s, after the big one at %s: scheduling is not fair",
			smallDone.Finished.Format(time.RFC3339Nano), bigDone.Finished.Format(time.RFC3339Nano))
	}
}

// TestServeQuotaQueuedRuns checks the per-tenant queue quota: an
// over-quota submission is refused 429 with a Retry-After estimate
// while another tenant is still admitted.
func TestServeQuotaQueuedRuns(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1,
		Quotas:  Quotas{MaxQueuedRuns: 15},
	})
	release := wedge(t, s) // nothing completes until the checks are done

	first := submitOK(t, ts, "alice", tinySpec(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)) // 12 runs

	resp := submit(t, ts, "alice", tinySpec(0.05, 0.1, 0.3, 0.5, 0.7)) // 6 more: over 15
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submission: status %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", resp.Header.Get("Retry-After"))
	}

	// The quota is per tenant: bob is unaffected by alice's backlog.
	other := submitOK(t, ts, "bob", tinySpec(0.5))
	release()
	waitState(t, ts, other.ID, StateDone)
	waitState(t, ts, first.ID, StateDone)
}

// TestServeQuotaResultBytes checks the stored-result quota: a tenant
// whose finished campaigns received more result bytes than its budget is
// refused until they are deleted.
func TestServeQuotaResultBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2,
		Quotas:  Quotas{ResultBytes: 1},
	})
	// Alice's first campaign is admitted with nothing received yet, and
	// finishes charged the bytes of its three stored results.
	first := submitOK(t, ts, "alice", tinySpec())
	if done := waitState(t, ts, first.ID, StateDone); done.ResultBytes <= 1 {
		t.Fatalf("finished campaign charged %d result bytes, want its stored records' size", done.ResultBytes)
	}

	resp := submit(t, ts, "alice", tinySpec(0.5))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submission: status %d, want 429", resp.StatusCode)
	}

	// Deleting the finished campaign frees the budget.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+first.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete finished campaign: status %d, want 204", dresp.StatusCode)
	}
	ok := submitOK(t, ts, "alice", tinySpec(0.5))
	waitState(t, ts, ok.ID, StateDone)
}

// TestServeDegradedAdmission checks load shedding degrades before it
// refuses: over the service-wide backlog line, a campaign is still
// admitted but runs with capped fan-out groups.
func TestServeDegradedAdmission(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2,
		Quotas:  Quotas{DegradeQueuedRuns: 1, DegradedMaxGroup: 2},
	})
	degraded := telemetry.Server.DegradedAdmissions.Load()

	st := submitOK(t, ts, "alice", tinySpec(0.05, 0.3, 0.7)) // 4 runs > 1
	if !st.Degraded || st.FanMaxGroup != 2 {
		t.Fatalf("admission degraded=%v fanMaxGroup=%d, want degraded with cap 2", st.Degraded, st.FanMaxGroup)
	}
	if got := telemetry.Server.DegradedAdmissions.Load(); got != degraded+1 {
		t.Errorf("DegradedAdmissions %d, want %d", got, degraded+1)
	}
	waitState(t, ts, st.ID, StateDone)
	events, _ := streamResults(t, ts, st.ID)
	if len(events) != 4 {
		t.Fatalf("degraded campaign delivered %d results, want all 4", len(events))
	}
}

// TestServeDrainCheckpointResume checks the graceful-drain contract and
// the restart half of resume, in process: a drain stops admission
// (503), sheds the queued runs, leaves the campaign active in the
// manifest, and a fresh server over the same store finishes exactly the
// shed remainder.
func TestServeDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	// NoFanout gives one pool task per run, so the queue length below is
	// the run count.
	s, ts := newTestServer(t, Config{Workers: 1, DataDir: dir, NoFanout: true})
	release := wedge(t, s) // hold the worker so the drain sheds a full queue

	st := submitOK(t, ts, "alice", tinySpec(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95)) // 8 runs
	waitQueued(t, s, 8)

	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dctx) }()
	for s.pool.Queued() > 0 { // shedding is synchronous inside Drain
		time.Sleep(2 * time.Millisecond)
	}

	resp := submit(t, ts, "alice", tinySpec(0.5))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission during drain: status %d, want 503", resp.StatusCode)
	}

	release() // the in-flight task finishes; Drain completes
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	meta, ok := s.Store().Get(st.ID)
	if !ok {
		t.Fatal("campaign vanished from the manifest")
	}
	if meta.State != StateActive {
		t.Fatalf("drained campaign state %q, want it checkpointed active for resume", meta.State)
	}
	s.Close()
	ts.Close()

	s2, ts2 := newTestServer(t, Config{Workers: 2, DataDir: dir})
	if n := s2.Resume(); n != 1 {
		t.Fatalf("resumed %d campaigns, want 1", n)
	}
	waitState(t, ts2, st.ID, StateDone)
	events, final := streamResults(t, ts2, st.ID)
	if len(events) != 8 || final == nil {
		t.Fatalf("resumed campaign delivered %d results (final %v), want all 8", len(events), final)
	}
}

// TestServeCancel checks DELETE on a live campaign cancels it.
func TestServeCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	release := wedge(t, s)
	st := submitOK(t, ts, "alice", tinySpec(0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95))

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/campaigns/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", resp.StatusCode)
	}
	release() // let the queued tasks observe the canceled context
	got := waitState(t, ts, st.ID, StateCanceled)
	if !strings.Contains(got.Error, "canceled by owner") {
		t.Errorf("canceled campaign error %q", got.Error)
	}
}

// TestServeValidation checks malformed submissions and lookups fail
// with the right statuses before consuming any capacity.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for name, spec := range map[string]SweepSpec{
		"no workloads":     {},
		"unknown workload": {Workloads: []string{"no.such.trace"}},
		"bad point":        {Workloads: []string{"453.povray"}, Points: []float64{1.5}},
	} {
		resp := submit(t, ts, "alice", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if _, code := getStatus(t, ts, "c-nonexistent"); code != http.StatusNotFound {
		t.Errorf("unknown campaign: status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || health["status"] != "ok" {
		t.Errorf("healthz: %v (%v)", health, err)
	}
}

// TestSweepSpecConfigsMatchCLI pins the spec expansion to pintesweep's
// canonical order: baselines first, then the workload-major grid.
// TestServeDebugVarsServesTree: pinted's /debug/vars serves the metrics
// tree as one "pinte" key holding all seven groups, and the server group
// counts the campaign just submitted.
func TestServeDebugVarsServesTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	st := submitOK(t, ts, "alice", tinySpec())
	waitState(t, ts, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	for k := range vars {
		if strings.HasPrefix(k, "pinte") && k != "pinte" {
			t.Errorf("stray expvar key %q beside the tree", k)
		}
	}
	var tree map[string]map[string]any
	if err := json.Unmarshal(vars["pinte"], &tree); err != nil {
		t.Fatalf("pinte: %v", err)
	}
	for _, g := range []string{"campaigns", "replay", "degraded", "fanout", "phase", "server", "store"} {
		if _, ok := tree[g]; !ok {
			t.Errorf("tree lacks group %q", g)
		}
	}
	if n, _ := tree["server"]["submitted"].(float64); n < 1 {
		t.Fatalf("server group did not count the submission: %v", tree["server"])
	}
}

func TestSweepSpecConfigsMatchCLI(t *testing.T) {
	spec := SweepSpec{
		Workloads: []string{"453.povray", "450.soplex"}, Points: []float64{0.1, 0.5},
		WarmupInstrs: 1000, ROIInstrs: 2000, Seed: 7,
	}
	cfgs := spec.Configs()
	if len(cfgs) != spec.Runs() || len(cfgs) != 6 {
		t.Fatalf("expanded to %d configs, want 6", len(cfgs))
	}
	for i, want := range []struct {
		mode sim.Mode
		wl   string
		p    float64
	}{
		{sim.Isolation, "453.povray", 0},
		{sim.Isolation, "450.soplex", 0},
		{sim.PInTE, "453.povray", 0.1},
		{sim.PInTE, "453.povray", 0.5},
		{sim.PInTE, "450.soplex", 0.1},
		{sim.PInTE, "450.soplex", 0.5},
	} {
		c := cfgs[i]
		if c.Mode != want.mode || c.Workload != want.wl || c.PInduce != want.p {
			t.Errorf("config %d = %s %s p=%g, want %s %s p=%g",
				i, c.Mode, c.Workload, c.PInduce, want.mode, want.wl, want.p)
		}
	}
}

// TestQuotaDecide unit-tests the pure admission policy.
func TestQuotaDecide(t *testing.T) {
	q := Quotas{MaxQueuedRuns: 10, ResultBytes: 1000, DegradeQueuedRuns: 20, DegradedMaxGroup: 3}

	if d := decide(q, load{}, 5); !d.admit || d.degraded {
		t.Errorf("idle service: %+v, want plain admit", d)
	}
	if d := decide(q, load{tenantQueued: 8, runsPerSec: 2}, 5); d.admit || d.status != 429 || d.retryAfter < time.Second {
		t.Errorf("over queue quota: %+v, want 429 with Retry-After", d)
	}
	if d := decide(q, load{tenantResultBytes: 2000}, 5); d.admit || d.status != 429 {
		t.Errorf("over result budget: %+v, want 429", d)
	}
	if d := decide(q, load{totalQueued: 18}, 5); !d.admit || !d.degraded || d.fanMaxGroup != 3 {
		t.Errorf("over degrade line: %+v, want degraded admit with cap 3", d)
	}
	if d := decide(Quotas{}, load{tenantQueued: 1 << 40}, 1<<20); !d.admit || d.degraded {
		t.Errorf("no quotas: %+v, want unconditional admit", d)
	}
	if got := retryEstimate(100, 10); got != 10*time.Second {
		t.Errorf("retryEstimate(100, 10) = %s, want 10s", got)
	}
	if got := retryEstimate(100, 0); got != 5*time.Second {
		t.Errorf("retryEstimate with no rate = %s, want the 5s fallback", got)
	}
}
