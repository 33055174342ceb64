package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// fakeRun returns a deterministic run function whose result is a pure
// function of the config, counting invocations — the store and resume
// machinery under test cannot tell it from a real simulation.
func fakeRun(calls *atomic.Int64) func(context.Context, sim.Config) (*sim.Result, error) {
	return func(_ context.Context, cfg sim.Config) (*sim.Result, error) {
		if calls != nil {
			calls.Add(1)
		}
		return &sim.Result{
			Config: cfg,
			IPC:    0.5 + cfg.PInduce,
			Instrs: cfg.ROIInstrs,
		}, nil
	}
}

// segmentOf returns the bytes of the one segment a small store holds.
func segmentOf(t testing.TB, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("store %s holds segments %v (%v), want one", dir, segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosCrashRecoveryProperty is the randomized crash-recovery
// property test of the campaign's durable record, the result store. A
// kill at any instant of an append is simulated two ways: a finished
// store's segment is cut at fuzzed byte offsets, and the
// store.append.partial site tears a fuzzed one of a live campaign's
// appends. Every resume must (a) produce results identical to the
// uninterrupted campaign, (b) re-execute exactly the runs whose records
// the crash destroyed, and (c) leave a store that reopens clean, with
// every result in it.
func TestChaosCrashRecoveryProperty(t *testing.T) {
	cfgs := make([]sim.Config, 6)
	for i := range cfgs {
		cfgs[i] = tinyCfg("433.milc", 0.05*float64(i+1))
	}
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := ConfigKey(cfg)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}

	dir := t.TempDir()
	golden := filepath.Join(dir, "golden")
	st := openStore(t, golden, "sim-test")
	o := New(Options{Workers: 2, Store: st})
	o.run = fakeRun(nil)
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("golden campaign: err=%v failures=%v", err, out.Failures)
	}
	ref := make([]string, len(cfgs))
	for i, r := range out.Results {
		ref[i] = fingerprint(r)
	}
	st.Close()
	data := segmentOf(t, golden)

	// resume reruns the campaign over the store in sdir: opening it must
	// trim `torn` torn tails, and the campaign must re-execute want runs.
	resume := func(name, sdir string, want, torn int64) {
		t.Helper()
		before := telemetry.StoreSnapshot()
		st := openStore(t, sdir, "sim-test")
		if d := telemetry.StoreSnapshot()["torn_tails"] - before["torn_tails"]; d != torn {
			t.Fatalf("%s: open trimmed %d torn tails, want %d", name, d, torn)
		}
		var calls atomic.Int64
		o := New(Options{Workers: 2, Store: st})
		o.run = fakeRun(&calls)
		out, err := o.RunAll(context.Background(), cfgs)
		if err != nil || len(out.Failures) != 0 {
			t.Fatalf("%s: resume: err=%v failures=%v", name, err, out.Failures)
		}
		for i, r := range out.Results {
			if fingerprint(r) != ref[i] {
				t.Fatalf("%s: result %d diverged after resume", name, i)
			}
		}
		if calls.Load() != want {
			t.Fatalf("%s: resume re-ran %d runs, want %d", name, calls.Load(), want)
		}
		st.Close()

		// The resumed store must be whole: every key present and
		// correct, nothing corrupt and nothing left to trim.
		before = telemetry.StoreSnapshot()
		st = openStore(t, sdir, "sim-test")
		after := telemetry.StoreSnapshot()
		if after["torn_tails"] != before["torn_tails"] || after["corrupt_records"] != before["corrupt_records"] {
			t.Fatalf("%s: store dirty after resume", name)
		}
		for i, k := range keys {
			if res, ok := st.Peek(k); !ok || fingerprint(res) != ref[i] {
				t.Fatalf("%s: stored result %d missing or wrong after resume", name, i)
			}
		}
		st.Close()
	}

	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 16; iter++ {
		cut := 1 + rng.Intn(len(data)-1)
		sdir := filepath.Join(dir, fmt.Sprintf("cut%d", iter))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sdir, "seg-00000001.seg"), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		intact := int64(bytes.Count(data[:cut], []byte{'\n'}))
		var torn int64
		if data[cut-1] != '\n' {
			torn = 1
		}
		resume(fmt.Sprintf("cut=%d", cut), sdir, int64(len(cfgs))-intact, torn)
	}

	for iter := 0; iter < 4; iter++ {
		k := rng.Intn(len(cfgs))
		sdir := filepath.Join(dir, fmt.Sprintf("torn%d", iter))
		fault.Enable(uint64(iter))
		fault.Set(fault.SiteStoreAppendPartial, fault.Spec{Every: 1, After: uint64(k), Limit: 1})
		st := openStore(t, sdir, "sim-test")
		o := New(Options{Workers: 2, Store: st})
		o.run = fakeRun(nil)
		out, err := o.RunAll(context.Background(), cfgs)
		fault.Disable()
		if err != nil || len(out.HardFailures()) != 0 || len(out.RecordFailures()) != 1 {
			t.Fatalf("append %d torn: err=%v failures=%v, want one record-only failure", k, err, out.Failures)
		}
		for i, r := range out.Results {
			if r == nil || fingerprint(r) != ref[i] {
				t.Fatalf("append %d torn: result %d lost or wrong in the live campaign", k, i)
			}
		}
		st.Close()
		resume(fmt.Sprintf("append %d torn", k), sdir, 1, 1)
	}
}

// TestChaosInjectionMatrix arms every injection site in turn against a
// real two-config campaign and asserts the blanket invariant: each
// config either produced a result identical to the fault-free reference
// or failed with a clean typed error — never a silently wrong result.
func TestChaosInjectionMatrix(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1), tinyCfg("450.soplex", 0.3)}
	refO := New(Options{Workers: 2})
	refOut, err := refO.RunAll(context.Background(), cfgs)
	if err != nil || len(refOut.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, refOut.Failures)
	}
	ref := make([]string, len(cfgs))
	for i, r := range refOut.Results {
		ref[i] = fingerprint(r)
	}

	typed := func(err error) bool {
		return errors.Is(err, fault.ErrInjected) ||
			errors.Is(err, sim.ErrPanic) || errors.Is(err, sim.ErrTimeout) ||
			errors.Is(err, sim.ErrStalled) || errors.Is(err, sim.ErrBadConfig) ||
			errors.Is(err, sim.ErrCanceled)
	}

	cases := []struct {
		name           string
		spec           string
		store, cache   bool
		timeout, grace time.Duration
		wantOpenErr    bool
	}{
		{name: "store-open", spec: "store.open:every=1,limit=1", store: true, wantOpenErr: true},
		{name: "store-append", spec: "store.append:every=1,limit=1", store: true},
		{name: "store-append-partial", spec: "store.append.partial:every=1,limit=1", store: true},
		{name: "replay-source", spec: "replay.source:every=1,limit=1", cache: true},
		{name: "replay-corrupt", spec: "replay.corrupt:every=1,limit=1", cache: true},
		{name: "replay-evict", spec: "replay.evict:every=2", cache: true},
		{name: "sim-source", spec: "sim.source:every=1,limit=1"},
		{name: "trace-read", spec: "trace.read:every=3,limit=1"},
		{name: "worker-panic", spec: "worker.panic:every=1,limit=1"},
		{name: "worker-slow", spec: "worker.slow:p=1,delay=1s,limit=1", timeout: 250 * time.Millisecond},
		{name: "worker-hang", spec: "worker.hang:every=1,limit=1", timeout: 100 * time.Millisecond, grace: 100 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := fault.Apply("seed=1;" + tc.spec); err != nil {
				t.Fatal(err)
			}
			defer fault.Disable()
			opts := Options{Workers: 2, Timeout: tc.timeout, StallGrace: tc.grace}
			if tc.store {
				// The store is the campaign's durable record: a store
				// that will not open refuses the campaign with a typed
				// error rather than running it unrecorded.
				st, err := store.Open(store.Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
				if tc.wantOpenErr {
					if !errors.Is(err, fault.ErrInjected) {
						t.Fatalf("store open error = %v, want fault.ErrInjected", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				opts.Store = st
			}
			if tc.cache {
				opts.Streams = replay.NewCache(64 << 20)
			}
			out, err := New(opts).RunAll(context.Background(), cfgs)
			if err != nil {
				t.Fatalf("campaign-level error: %v", err)
			}
			for i := range cfgs {
				if r := out.Results[i]; r != nil {
					if fingerprint(r) != ref[i] {
						t.Errorf("config %d produced a result that differs from the fault-free reference", i)
					}
					continue
				}
				found := false
				for _, f := range out.Failures {
					if f.Index == i && !f.RecordOnly {
						found = true
					}
				}
				if !found {
					t.Errorf("config %d has neither a result nor a failure", i)
				}
			}
			for _, f := range out.Failures {
				if !typed(f.Err) {
					t.Errorf("failure for config %d is untyped: %v", f.Index, f.Err)
				}
			}
		})
	}
}

// TestWatchdogConvertsHangToStalled checks the stuck-run watchdog
// abandons a worker that ignores its expired context, surfaces a
// retryable sim.ErrStalled, counts it, and lets a retry succeed.
func TestWatchdogConvertsHangToStalled(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var attempts atomic.Int64
	before := telemetry.Degraded.StalledRuns.Load()

	o := New(Options{
		Workers: 1, Timeout: 30 * time.Millisecond,
		StallGrace: 30 * time.Millisecond, Retries: 1,
	})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if attempts.Add(1) == 1 {
			<-release // wedged: ignores ctx entirely
		}
		return &sim.Result{Config: cfg, IPC: 1}, nil
	}
	out, err := o.RunAll(context.Background(), []sim.Config{tinyCfg("w", 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 0 || out.Results[0] == nil {
		t.Fatalf("retry after stall did not recover: failures=%v", out.Failures)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (stall, then retry)", got)
	}
	if d := telemetry.Degraded.StalledRuns.Load() - before; d != 1 {
		t.Fatalf("StalledRuns advanced by %d, want 1", d)
	}

	// Without retries the stall must surface as a typed failure.
	release2 := make(chan struct{})
	defer close(release2)
	o2 := New(Options{Workers: 1, Timeout: 20 * time.Millisecond, StallGrace: 20 * time.Millisecond})
	o2.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		<-release2
		return nil, nil
	}
	out2, err := o2.RunAll(context.Background(), []sim.Config{tinyCfg("w", 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out2.Failures) != 1 || !errors.Is(out2.Failures[0].Err, sim.ErrStalled) {
		t.Fatalf("failures = %v, want one sim.ErrStalled", out2.Failures)
	}
}

// TestBackoffDelayShape pins the backoff curve: exponential doubling
// from the base, capped, with jitter inside ±25% and deterministic for a
// given (seed, attempt).
func TestBackoffDelayShape(t *testing.T) {
	const base, max = 100 * time.Millisecond, 400 * time.Millisecond
	for attempt := 1; attempt <= 6; attempt++ {
		ideal := base << (attempt - 1)
		if ideal > max {
			ideal = max
		}
		d := backoffDelay(base, max, attempt, 42)
		lo := time.Duration(float64(ideal) * 0.75)
		hi := time.Duration(float64(ideal) * 1.25)
		if d < lo || d > hi {
			t.Errorf("attempt %d: delay %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if d2 := backoffDelay(base, max, attempt, 42); d2 != d {
			t.Errorf("attempt %d: backoff not deterministic: %v != %v", attempt, d, d2)
		}
	}
	if backoffDelay(0, 0, 3, 1) != 0 {
		t.Error("zero base must disable backoff")
	}
	if backoffDelay(base, max, 0, 1) != 0 {
		t.Error("attempt 0 must not back off")
	}
	// Overflow guard: an absurd attempt count stays at the cap.
	if d := backoffDelay(base, max, 500, 9); d <= 0 || d > time.Duration(float64(max)*1.25) {
		t.Errorf("attempt 500: delay %v escaped the cap", d)
	}
}

// TestBackoffUsesFakeClock drives the retry loop against a recording
// sleep hook: the orchestrator must pause before every retry, with the
// exact deterministic delays backoffDelay prescribes, and never sleep
// before the first attempt.
func TestBackoffUsesFakeClock(t *testing.T) {
	cfg := tinyCfg("w", 0.1)
	run := 0
	var slept []time.Duration
	o := New(Options{Workers: 1, Retries: 3, Backoff: 50 * time.Millisecond})
	o.sleep = func(ctx context.Context, d time.Duration) { slept = append(slept, d) }
	o.run = func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		run++
		if run <= 3 {
			return nil, fmt.Errorf("flaky: %w", sim.ErrTimeout)
		}
		return &sim.Result{Config: c, IPC: 1}, nil
	}
	out, err := o.RunAll(context.Background(), []sim.Config{cfg})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("campaign: err=%v failures=%v", err, out.Failures)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %d times, want 3 (one per retry)", len(slept))
	}
	for i, d := range slept {
		want := backoffDelay(50*time.Millisecond, 0, i+1, cfg.Seed)
		if d != want {
			t.Errorf("retry %d slept %v, want %v", i+1, d, want)
		}
	}
}
