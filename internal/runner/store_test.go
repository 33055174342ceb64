package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func openStore(t *testing.T, dir, fp string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fingerprint: fp})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func resultBytes(t *testing.T, res *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStoreWarmRestartByteIdentical is the tentpole property at the
// orchestrator level: a campaign rerun against the same store directory
// in a fresh "process" (new Store, new Orchestrator) executes nothing
// and returns byte-identical results.
func TestStoreWarmRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cfgs := []sim.Config{
		tinyCfg("433.milc", 0.1),
		tinyCfg("433.milc", 0.5),
		tinyCfg("470.lbm", 0.3),
	}

	st := openStore(t, dir, "sim-test")
	o := New(Options{Workers: 2, Store: st})
	cold, err := o.RunAll(context.Background(), cfgs)
	if err != nil || cold.Err() != nil {
		t.Fatalf("cold pass: %v / %v", err, cold.Err())
	}
	if cold.Ran != len(cfgs) || cold.FromStore != 0 {
		t.Fatalf("cold pass Ran=%d FromStore=%d, want %d/0", cold.Ran, cold.FromStore, len(cfgs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, "sim-test")
	o2 := New(Options{Workers: 2, Store: st2})
	warm, err := o2.RunAll(context.Background(), cfgs)
	if err != nil || warm.Err() != nil {
		t.Fatalf("warm pass: %v / %v", err, warm.Err())
	}
	if warm.Ran != 0 || warm.FromStore != len(cfgs) {
		t.Fatalf("warm pass Ran=%d FromStore=%d, want 0/%d", warm.Ran, warm.FromStore, len(cfgs))
	}
	for i := range cfgs {
		if got, want := resultBytes(t, warm.Results[i]), resultBytes(t, cold.Results[i]); got != want {
			t.Fatalf("result %d not byte-identical across warm restart:\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestStoreFingerprintBumpForcesRecompute simulates a simulator change:
// a store reopened under a new fingerprint serves zero stale hits and
// the campaign recomputes everything; reverting finds the old records.
func TestStoreFingerprintBumpForcesRecompute(t *testing.T) {
	dir := t.TempDir()
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1), tinyCfg("470.lbm", 0.3)}

	st := openStore(t, dir, "sim-v1")
	o := New(Options{Workers: 2, Store: st})
	if out, err := o.RunAll(context.Background(), cfgs); err != nil || out.Err() != nil {
		t.Fatalf("v1 pass: %v / %v", err, out.Err())
	}
	st.Close()

	before := telemetry.StoreSnapshot()
	st2 := openStore(t, dir, "sim-v2")
	o2 := New(Options{Workers: 2, Store: st2})
	out, err := o2.RunAll(context.Background(), cfgs)
	if err != nil || out.Err() != nil {
		t.Fatalf("v2 pass: %v / %v", err, out.Err())
	}
	if out.Ran != len(cfgs) || out.FromStore != 0 {
		t.Fatalf("v2 pass Ran=%d FromStore=%d, want %d/0 (full recompute)", out.Ran, out.FromStore, len(cfgs))
	}
	after := telemetry.StoreSnapshot()
	if hits := after["hits"] - before["hits"]; hits != 0 {
		t.Fatalf("%d stale hits served across a fingerprint bump", hits)
	}
	if stale := after["stale_skipped"] - before["stale_skipped"]; stale != int64(len(cfgs)) {
		t.Fatalf("stale_skipped delta = %d, want %d", stale, len(cfgs))
	}
	st2.Close()

	st3 := openStore(t, dir, "sim-v1")
	o3 := New(Options{Workers: 2, Store: st3})
	out3, err := o3.RunAll(context.Background(), cfgs)
	if err != nil || out3.Err() != nil {
		t.Fatalf("revert pass: %v / %v", err, out3.Err())
	}
	if out3.FromStore != len(cfgs) {
		t.Fatalf("revert pass FromStore=%d, want %d (old records intact)", out3.FromStore, len(cfgs))
	}
}

// TestStoreFaultsDegradeToComputeWithoutCache arms every store fault
// site at once; every run must still succeed and keep its result — a
// lost append is a record-only failure, never a failed run — and a
// faulted read recomputes.
func TestStoreFaultsDegradeToComputeWithoutCache(t *testing.T) {
	fault.Enable(11)
	defer fault.Disable()
	fault.Set(fault.SiteStoreAppend, fault.Spec{Every: 1})
	fault.Set(fault.SiteStoreRead, fault.Spec{Every: 1})

	dir := t.TempDir()
	st := openStore(t, dir, "sim-test")
	var computes atomic.Int32
	o := New(Options{Workers: 2, Store: st})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		computes.Add(1)
		return &sim.Result{Config: cfg, IPC: 1}, nil
	}
	cfgs := []sim.Config{tinyCfg("a", 0.1), tinyCfg("b", 0.2)}
	before := telemetry.StoreSnapshot()
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil || len(out.HardFailures()) != 0 {
		t.Fatalf("store faults failed the campaign: %v / %v", err, out.HardFailures())
	}
	if out.Ran != 2 || computes.Load() != 2 {
		t.Fatalf("Ran=%d computes=%d, want 2/2", out.Ran, computes.Load())
	}
	for i, res := range out.Results {
		if res == nil {
			t.Fatalf("run %d lost its result to a failed append", i)
		}
	}
	if rf := out.RecordFailures(); len(rf) != 2 || !errors.Is(rf[0].Err, fault.ErrInjected) {
		t.Fatalf("record failures = %v, want 2 typed record-only failures", rf)
	}
	after := telemetry.StoreSnapshot()
	if d := after["put_errors"] - before["put_errors"]; d != 2 {
		t.Fatalf("put_errors delta = %d, want 2 (typed, counted, non-fatal)", d)
	}

	// Same campaign with reads faulted against a populated store: every
	// hit degrades to a counted miss and recomputes.
	fault.Disable()
	st2 := openStore(t, t.TempDir(), "sim-test")
	o2 := New(Options{Workers: 1, Store: st2})
	o2.run = o.run
	if out, err := o2.RunAll(context.Background(), cfgs); err != nil || out.Err() != nil {
		t.Fatalf("populate: %v / %v", err, out.Err())
	}
	fault.Enable(11)
	fault.Set(fault.SiteStoreRead, fault.Spec{Every: 1})
	computes.Store(0)
	before = telemetry.StoreSnapshot()
	out2, err := o2.RunAll(context.Background(), cfgs)
	if err != nil || out2.Err() != nil {
		t.Fatalf("read faults failed the campaign: %v / %v", err, out2.Err())
	}
	if computes.Load() != 2 || out2.Ran != 2 {
		t.Fatalf("faulted reads did not recompute: computes=%d Ran=%d", computes.Load(), out2.Ran)
	}
	after = telemetry.StoreSnapshot()
	if d := after["read_errors"] - before["read_errors"]; d < 2 {
		t.Fatalf("read_errors delta = %d, want >= 2", d)
	}
}

// waitParkedOnFlight polls the process's goroutine dump until some
// goroutine is select-blocked inside store.(*Store).Do — a single-flight
// waiter parked on another campaign's computation. (The computing
// leader sits in Do too, but chan-receive-blocked inside its compute
// closure, so requiring the select state isolates the waiter.)
func waitParkedOnFlight(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	buf := make([]byte, 1<<20)
	for time.Now().Before(deadline) {
		n := runtime.Stack(buf, true)
		for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
			if bytes.Contains(g, []byte("[select]")) && bytes.Contains(g, []byte("store.(*Store).Do")) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no single-flight waiter parked within 10s")
}

// TestStoreSingleFlightCollapsesAcrossCampaigns runs two orchestrators
// (two campaigns, as two pinted tenants would be) against one store
// with identical configs: the second campaign's runs collapse onto the
// first's in-flight computations at admission — its own run function is
// never called — and both campaigns finish with the same results.
func TestStoreSingleFlightCollapsesAcrossCampaigns(t *testing.T) {
	st := openStore(t, t.TempDir(), "sim-test")
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1)}

	var computes atomic.Int32
	block := make(chan struct{})
	oA := New(Options{Workers: 1, Store: st})
	oA.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		computes.Add(1)
		<-block
		return &sim.Result{Config: cfg, IPC: 3}, nil
	}
	oB := New(Options{Workers: 1, Store: st})
	oB.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		t.Error("duplicate campaign computed instead of collapsing")
		return &sim.Result{Config: cfg, IPC: 3}, nil
	}

	var wg sync.WaitGroup
	var outA, outB *Outcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		outA, _ = oA.RunAll(context.Background(), cfgs)
	}()
	// A's leader is inside its compute before B is even started, so B's
	// admission-time InFlight check sees the flight.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		outB, _ = oB.RunAll(context.Background(), cfgs)
	}()
	waitParkedOnFlight(t)
	close(block)
	wg.Wait()

	if computes.Load() != 1 {
		t.Fatalf("config computed %d times across two campaigns, want 1", computes.Load())
	}
	if outA.Err() != nil || outB.Err() != nil {
		t.Fatalf("outcomes: A=%v B=%v", outA.Err(), outB.Err())
	}
	if outA.Ran != 1 || outB.Ran != 0 || outB.FromStore != 1 {
		t.Fatalf("A Ran=%d, B Ran=%d FromStore=%d; want 1, 0/1", outA.Ran, outB.Ran, outB.FromStore)
	}
	if a, b := resultBytes(t, outA.Results[0]), resultBytes(t, outB.Results[0]); a != b {
		t.Fatalf("campaigns diverged:\nA %s\nB %s", a, b)
	}
}

// TestStoreSkipsSampledResults: a sampled (approximated) result is
// stored under its own key — a second campaign with sampling off never
// gets it and recomputes at full fidelity, while a sampled rerun is
// served it.
func TestStoreSkipsSampledResults(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, "sim-test")
	cfg := tinyCfg("433.milc", 0.1)
	cfg.ROIInstrs = 200_000 // enough windows for a plan to form

	o := New(Options{Workers: 1, Store: st, Sample: true})
	out, err := o.RunAll(context.Background(), []sim.Config{cfg})
	if err != nil || out.Err() != nil {
		t.Fatalf("sampled pass: %v / %v", err, out.Err())
	}
	if out.Results[0].Sampled == nil {
		t.Fatal("sampled pass did not sample")
	}
	st.Close()

	st2 := openStore(t, dir, "sim-test")
	out2, err := New(Options{Workers: 1, Store: st2}).RunAll(context.Background(), []sim.Config{cfg})
	if err != nil || out2.Err() != nil {
		t.Fatalf("full pass: %v / %v", err, out2.Err())
	}
	if out2.FromStore != 0 || out2.Ran != 1 {
		t.Fatalf("full pass FromStore=%d Ran=%d, want 0/1 (the sampled result is not full fidelity)", out2.FromStore, out2.Ran)
	}
	if out2.Results[0].Sampled != nil {
		t.Fatal("full-fidelity pass returned a sampled result")
	}

	// The sampled rerun prefers the full-fidelity record stored since.
	out3, err := New(Options{Workers: 1, Store: st2, Sample: true}).RunAll(context.Background(), []sim.Config{cfg})
	if err != nil || out3.Err() != nil {
		t.Fatalf("sampled rerun: %v / %v", err, out3.Err())
	}
	if out3.FromStore != 1 || out3.Results[0].Sampled != nil {
		t.Fatalf("sampled rerun FromStore=%d sampled=%v, want the stored full-fidelity result", out3.FromStore, out3.Results[0].Sampled != nil)
	}
}

// TestSampledCampaignResumesFromStore cancels a sampled campaign
// partway through and reruns it against the same store: the sampled
// points it stored come back as hits — their profile is not run again
// and neither are they — and only the rest are profiled and run.
func TestSampledCampaignResumesFromStore(t *testing.T) {
	var cfgs []sim.Config
	for _, w := range []string{"433.milc", "470.lbm"} {
		for _, p := range []float64{0.1, 0.4} {
			cfg := tinyCfg(w, p)
			cfg.ROIInstrs = 200_000 // enough windows for a plan to form
			cfgs = append(cfgs, cfg)
		}
	}
	st := openStore(t, t.TempDir(), "sim-test")

	// One worker runs the per-run stage in input order; canceling at the
	// second result stores exactly 433.milc's two sampled points.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int32
	first, err := New(Options{
		Workers: 1, Store: st, Sample: true,
		OnResult: func(int, string, *sim.Result, bool) {
			if seen.Add(1) == 2 {
				cancel()
			}
		},
	}).RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if first.Ran != 2 || len(first.HardFailures()) != 2 {
		t.Fatalf("canceled pass Ran=%d failures=%v, want 2 run and 2 canceled", first.Ran, first.Failures)
	}
	for i := 0; i < 2; i++ {
		if first.Results[i] == nil || first.Results[i].Sampled == nil {
			t.Fatalf("canceled pass: point %d missing or unsampled", i)
		}
	}

	var out *Outcome
	d := phaseDelta(func() {
		out, err = New(Options{Workers: 1, Store: st, Sample: true}).RunAll(context.Background(), cfgs)
	})
	if err != nil || out.Err() != nil {
		t.Fatalf("rerun: %v / %v", err, out.Err())
	}
	if out.FromStore != 2 || out.Ran != 2 {
		t.Fatalf("rerun FromStore=%d Ran=%d, want 2/2", out.FromStore, out.Ran)
	}
	if d["profile_runs"] != 1 || d["sampled_runs"] != 2 {
		t.Fatalf("rerun profiled %d workloads and sampled %d runs, want 1 and 2", d["profile_runs"], d["sampled_runs"])
	}
	for i := range cfgs {
		if out.Results[i] == nil || out.Results[i].Sampled == nil {
			t.Fatalf("rerun: point %d missing or unsampled", i)
		}
	}
	for i := 0; i < 2; i++ {
		if resultBytes(t, out.Results[i]) != resultBytes(t, first.Results[i]) {
			t.Fatalf("stored sampled point %d changed across the resume", i)
		}
	}
}

// TestSampledCachedCampaignRerunsFromStore reruns a finished sampled
// campaign that releases its replay cache's streams: every config is a
// store hit, and finishing the hits before the profile groups' streams
// are tracked releases nothing and runs nothing.
func TestSampledCachedCampaignRerunsFromStore(t *testing.T) {
	var cfgs []sim.Config
	for _, w := range []string{"433.milc", "470.lbm"} {
		for _, p := range []float64{0.1, 0.4} {
			cfg := tinyCfg(w, p)
			cfg.ROIInstrs = 200_000 // enough windows for a plan to form
			cfgs = append(cfgs, cfg)
		}
	}
	st := openStore(t, t.TempDir(), "sim-test")
	run := func() *Outcome {
		t.Helper()
		cache := replay.NewCache(0)
		out, err := New(Options{Workers: 2, Store: st, Sample: true, Streams: cache}).
			RunAll(context.Background(), cfgs)
		if err != nil || out.Err() != nil {
			t.Fatalf("campaign: %v / %v", err, out.Err())
		}
		return out
	}
	first := run()
	if first.Ran != len(cfgs) {
		t.Fatalf("first pass Ran=%d, want %d", first.Ran, len(cfgs))
	}
	again := run()
	if again.FromStore != len(cfgs) || again.Ran != 0 {
		t.Fatalf("rerun FromStore=%d Ran=%d, want %d/0", again.FromStore, again.Ran, len(cfgs))
	}
	for i := range cfgs {
		if resultBytes(t, again.Results[i]) != resultBytes(t, first.Results[i]) {
			t.Fatalf("stored point %d changed across the rerun", i)
		}
	}
}

// TestComputedResultStoredBeforeOnResult pins durability before
// visibility: by the time OnResult sees a result this campaign computed
// — on the per-run and the fan-out path — the result is already in the
// store, so nothing a campaign streams can be lost to a crash.
func TestComputedResultStoredBeforeOnResult(t *testing.T) {
	for _, fanout := range []bool{false, true} {
		st := openStore(t, t.TempDir(), "sim-test")
		var seen, unstored atomic.Int32
		out, err := New(Options{
			Workers: 2, Store: st, Fanout: fanout,
			OnResult: func(_ int, key string, res *sim.Result, fromStore bool) {
				seen.Add(1)
				if _, ok := st.Peek(RecordKey(key, res)); !ok && !fromStore {
					unstored.Add(1)
				}
			},
		}).RunAll(context.Background(), []sim.Config{
			tinyCfg("433.milc", 0.1), tinyCfg("433.milc", 0.3), tinyCfg("470.lbm", 0.2),
		})
		if err != nil || out.Err() != nil || out.Ran != 3 {
			t.Fatalf("fanout=%v: campaign err=%v/%v ran=%d", fanout, err, out.Err(), out.Ran)
		}
		if seen.Load() != 3 || unstored.Load() != 0 {
			t.Fatalf("fanout=%v: %d of %d computed results were visible before they were stored",
				fanout, unstored.Load(), seen.Load())
		}
	}
}

// TestCanceledScheduleWithWatcherRecordsFailuresUnderLock is the race
// regression for the failure log after a canceled schedule: campaign A
// watches a config campaign B is computing (B's leader is blocked in
// Store.Do), and A is canceled while its one worker holds a run and the
// rest of its per-run points are still unscheduled. The watcher's
// ErrCanceled and the unscheduled points' ErrCanceled land in the same
// failure log concurrently; run under -race, every append must go
// through the campaign lock.
func TestCanceledScheduleWithWatcherRecordsFailuresUnderLock(t *testing.T) {
	st := openStore(t, t.TempDir(), "sim-test")
	watched := tinyCfg("433.milc", 0.1)

	block := make(chan struct{})
	var leading atomic.Int32
	oB := New(Options{Workers: 1, Store: st})
	oB.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		leading.Add(1)
		<-block
		return &sim.Result{Config: cfg, IPC: 1}, nil
	}
	doneB := make(chan *Outcome, 1)
	go func() {
		out, _ := oB.RunAll(context.Background(), []sim.Config{watched})
		doneB <- out
	}()
	for leading.Load() == 0 {
		runtime.Gosched()
	}

	cfgs := []sim.Config{watched}
	for k := 0; k < 6; k++ {
		cfgs = append(cfgs, tinyCfg("470.lbm", 0.1*float64(k+1)))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	running := make(chan struct{}, 1)
	oA := New(Options{Workers: 1, Store: st})
	oA.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Workload == watched.Workload {
			t.Error("watcher computed instead of waiting on the flight")
		}
		running <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	doneA := make(chan *Outcome, 1)
	go func() {
		out, _ := oA.RunAll(ctx, cfgs)
		doneA <- out
	}()
	<-running             // A's worker holds its first per-run point
	waitParkedOnFlight(t) // A's watcher waits on B's flight
	cancel()
	outA := <-doneA
	close(block)
	if outB := <-doneB; outB.Err() != nil {
		t.Fatalf("leader campaign: %v", outB.Err())
	}

	if len(outA.Failures) != len(cfgs) {
		t.Fatalf("canceled campaign recorded %d failures, want %d: %v", len(outA.Failures), len(cfgs), outA.Failures)
	}
	for i, f := range outA.Failures {
		if f.Index != i || !errors.Is(f.Err, sim.ErrCanceled) {
			t.Errorf("failure %d = index %d (%v), want index %d ErrCanceled", i, f.Index, f.Err, i)
		}
	}
	if outA.Ran != 1 || outA.FromStore != 0 {
		t.Errorf("Ran=%d FromStore=%d, want 1/0 (only the held point ran)", outA.Ran, outA.FromStore)
	}
}
