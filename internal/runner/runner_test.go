package runner

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// tinyCfg returns a fast PInTE config for integration tests.
func tinyCfg(workload string, p float64) sim.Config {
	return sim.Config{
		Mode: sim.PInTE, Workload: workload, PInduce: p,
		WarmupInstrs: 20_000, ROIInstrs: 50_000, SampleEvery: 10_000, Seed: 1,
	}
}

// fingerprint reduces a result to its deterministic observable fields —
// exactly what the CSV emitters format — so equal fingerprints imply
// byte-identical CSV output.
func fingerprint(r *sim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v|%v|%v|%v|%v|%v|%d",
		r.IPC, r.MissRate, r.AMAT, r.ContentionRate, r.OccupancyFrac,
		r.LLCMPKI, r.Instrs)
	for _, s := range r.Samples {
		fmt.Fprintf(&b, ";%v,%v,%v", s.IPC, s.MissRate, s.OccupancyFrac)
	}
	return b.String()
}

func TestPanicBecomesRunError(t *testing.T) {
	o := New(Options{Workers: 2})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Workload == "boom" {
			panic("simulated crash")
		}
		return &sim.Result{Config: cfg, IPC: 1}, nil
	}
	cfgs := []sim.Config{
		tinyCfg("fine-a", 0.1),
		{Mode: sim.PInTE, Workload: "boom", PInduce: 0.5, Seed: 9},
		tinyCfg("fine-b", 0.2),
	}
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0] == nil || out.Results[2] == nil {
		t.Fatal("healthy runs lost alongside the crashing one")
	}
	if out.Results[1] != nil {
		t.Fatal("crashed run produced a result")
	}
	if len(out.Failures) != 1 {
		t.Fatalf("got %d failures, want 1: %v", len(out.Failures), out.Failures)
	}
	f := out.Failures[0]
	if f.Index != 1 || !errors.Is(f.Err, sim.ErrPanic) {
		t.Fatalf("failure misclassified: %+v", f)
	}
	if !strings.Contains(f.Stack, "runner") || f.Stack == "" {
		t.Fatalf("panic stack not captured: %q", f.Stack)
	}
	if f.Config.Seed != 9 {
		t.Fatalf("failure reports perturbed config, want original: %+v", f.Config)
	}
	if out.Err() == nil || !errors.Is(out.Err(), sim.ErrPanic) {
		t.Fatalf("Outcome.Err does not surface the panic: %v", out.Err())
	}
}

// TestRunAllIsolatesRealFailures drives real simulations: an unknown
// workload and an invalid config fail on their own, each as a RunError
// at its index (the invalid one classified ErrBadConfig), while the healthy configs complete with
// results byte-equal to running them alone through sim.Run.
func TestRunAllIsolatesRealFailures(t *testing.T) {
	bad := tinyCfg("433.milc", 0.2)
	bad.PInduce = 1.7
	cfgs := []sim.Config{
		tinyCfg("453.povray", 0),
		tinyCfg("999.bogus", 0.1),
		bad,
		tinyCfg("470.lbm", 0.2),
	}
	out, err := New(Options{Workers: 2}).RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3} {
		want, err := sim.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if out.Results[i] == nil || fingerprint(out.Results[i]) != fingerprint(want) {
			t.Fatalf("config %d: campaign result differs from sim.Run", i)
		}
	}
	if len(out.Failures) != 2 {
		t.Fatalf("got %d failures, want 2: %v", len(out.Failures), out.Failures)
	}
	for k, f := range out.Failures {
		if f.Index != k+1 || out.Results[f.Index] != nil || f.Config.Workload != cfgs[f.Index].Workload {
			t.Fatalf("failure %d misreported: %+v", k, f)
		}
	}
	if f := out.Failures[1]; !errors.Is(f.Err, sim.ErrBadConfig) {
		t.Fatalf("invalid config not classified ErrBadConfig: %v", f.Err)
	}
	if !errors.Is(out.Err(), sim.ErrBadConfig) {
		t.Fatalf("Outcome.Err lost the taxonomy: %v", out.Err())
	}
}

// TestRunAllFailsUnhashableConfig runs a config whose key cannot be
// encoded (a NaN P_Induce) in a plain and in a sampled, stream-releasing
// campaign: it fails as ErrBadConfig without running, and the other
// config runs.
func TestRunAllFailsUnhashableConfig(t *testing.T) {
	bad := tinyCfg("433.milc", 0.2)
	bad.PInduce = math.NaN()
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1), bad}
	for _, opts := range []Options{
		{Workers: 2},
		{Workers: 2, Sample: true, Streams: replay.NewCache(0)},
	} {
		out, err := New(opts).RunAll(context.Background(), cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if out.Results[0] == nil || out.Ran != 1 {
			t.Fatalf("sample=%v: hashable config did not run: Ran=%d", opts.Sample, out.Ran)
		}
		if len(out.Failures) != 1 || out.Failures[0].Index != 1 || !errors.Is(out.Failures[0].Err, sim.ErrBadConfig) {
			t.Fatalf("sample=%v: failures %v, want config 1 as ErrBadConfig", opts.Sample, out.Failures)
		}
	}
}

func TestRetryPerturbsSeed(t *testing.T) {
	var calls atomic.Int32
	o := New(Options{Workers: 1, Retries: 2})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		if cfg.Seed == 7 { // original seed deterministically crashes
			panic("bad seed")
		}
		return &sim.Result{Config: cfg, IPC: 2}, nil
	}
	cfg := tinyCfg("w", 0.1)
	cfg.Seed = 7
	out, err := o.RunAll(context.Background(), []sim.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 0 {
		t.Fatalf("retry did not rescue the run: %v", out.Failures)
	}
	if calls.Load() != 2 {
		t.Fatalf("got %d attempts, want 2 (crash, then perturbed success)", calls.Load())
	}
	got := out.Results[0].Config.Seed
	if got == 7 || got != PerturbSeed(7, 1) {
		t.Fatalf("retry seed = %d, want PerturbSeed(7,1) = %d", got, PerturbSeed(7, 1))
	}
}

func TestRetryBoundedAndNonRetryableSkipsRetry(t *testing.T) {
	var calls atomic.Int32
	o := New(Options{Workers: 1, Retries: 2})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		panic("always crashes")
	}
	out, _ := o.RunAll(context.Background(), []sim.Config{tinyCfg("w", 0.1)})
	if len(out.Failures) != 1 || out.Failures[0].Attempts != 3 {
		t.Fatalf("want 3 bounded attempts, got %+v", out.Failures)
	}
	if calls.Load() != 3 {
		t.Fatalf("run called %d times, want 3", calls.Load())
	}

	calls.Store(0)
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls.Add(1)
		return nil, fmt.Errorf("%w: broken", sim.ErrBadConfig)
	}
	out, _ = o.RunAll(context.Background(), []sim.Config{tinyCfg("w", 0.1)})
	if calls.Load() != 1 {
		t.Fatalf("non-retryable error retried %d times", calls.Load())
	}
	if !errors.Is(out.Failures[0].Err, sim.ErrBadConfig) {
		t.Fatalf("taxonomy lost: %v", out.Failures[0].Err)
	}
}

func TestCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := New(Options{Workers: 2})
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1), tinyCfg("470.lbm", 0.2)}
	out, err := o.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Ran != 0 {
		t.Fatalf("canceled campaign still ran %d configs", out.Ran)
	}
	if len(out.Failures) != len(cfgs) {
		t.Fatalf("got %d failures, want %d", len(out.Failures), len(cfgs))
	}
	for _, f := range out.Failures {
		if !errors.Is(f.Err, sim.ErrCanceled) {
			t.Fatalf("failure not classified as canceled: %v", f.Err)
		}
	}
}

func TestCancelMidCampaignStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	o := New(Options{Workers: 1})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if started.Add(1) == 2 {
			cancel() // campaign is killed while run 2 is in flight
			<-ctx.Done()
			return nil, sim.ErrCanceled
		}
		return &sim.Result{Config: cfg, IPC: 1}, nil
	}
	cfgs := make([]sim.Config, 6)
	for i := range cfgs {
		cfgs[i] = tinyCfg(fmt.Sprintf("w%d", i), 0.1)
	}
	out, err := o.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() > 3 {
		t.Fatalf("scheduling continued after cancel: %d runs started", started.Load())
	}
	if out.Results[0] == nil {
		t.Fatal("completed result dropped on cancellation")
	}
	canceled := 0
	for _, f := range out.Failures {
		if errors.Is(f.Err, sim.ErrCanceled) {
			canceled++
		}
	}
	if canceled < 4 {
		t.Fatalf("unstarted runs not reported as canceled: %v", out.Failures)
	}
}

func TestRealRunTimeout(t *testing.T) {
	cfg := tinyCfg("433.milc", 0.3)
	cfg.ROIInstrs = 500_000_000 // far beyond the deadline
	o := New(Options{Workers: 1, Timeout: 15 * time.Millisecond})
	out, err := o.RunAll(context.Background(), []sim.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 1 || !errors.Is(out.Failures[0].Err, sim.ErrTimeout) {
		t.Fatalf("deadline overrun not classified as timeout: %+v", out.Failures)
	}
}

func TestConfigKeyNormalizationAndSensitivity(t *testing.T) {
	implicit := sim.Config{Workload: "433.milc"}
	explicit := sim.Config{
		Workload: "433.milc", WarmupInstrs: 200_000, ROIInstrs: 1_000_000,
		SampleEvery: 50_000, Branch: "hashed-perceptron",
	}
	a, err := ConfigKey(implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ConfigKey(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("defaulted and explicit configs hash differently")
	}
	changed := implicit
	changed.PInduce = 0.25
	changed.Mode = sim.PInTE
	c, err := ConfigKey(changed)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct configs collide")
	}
}

// TestConfigKeyIgnoresStreams pins the replay cache's store-key contract:
// attaching a stream source changes how records are produced, never
// what they are, so it must not change the resume key — a sweep
// stored without the cache resumes cleanly with it, and vice versa.
func TestConfigKeyIgnoresStreams(t *testing.T) {
	plain := sim.Config{Workload: "433.milc", Mode: sim.PInTE, PInduce: 0.25}
	a, err := ConfigKey(plain)
	if err != nil {
		t.Fatal(err)
	}
	cached := plain
	cached.Streams = replay.NewCache(64 << 20)
	b, err := ConfigKey(cached)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("attaching a replay cache changed the config key")
	}
}

// TestRunAllResultsDropStreams: results of a replay-cached campaign —
// fan-out groups and per-run configs alike — must not reference the
// campaign's replay cache, or holding them would hold every recording.
func TestRunAllResultsDropStreams(t *testing.T) {
	cfgs := []sim.Config{
		tinyCfg("433.milc", 0.1), tinyCfg("433.milc", 0.3), tinyCfg("433.milc", 0.6),
		tinyCfg("470.lbm", 0.2),
	}
	o := New(Options{Workers: 2, Fanout: true, Streams: replay.NewCache(64 << 20)})
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if r == nil {
			t.Fatalf("run %d failed: %v", i, out.Failures)
		}
		if r.Config.Streams != nil {
			t.Errorf("result %d keeps its campaign's stream provider", i)
		}
	}
}

// TestRecordOnlyFailure pins the store-append failure semantics: the
// simulation succeeded, so its result must stay in Results, the failure
// must carry the REAL attempt count (not a hardcoded 1) and be marked
// record-only, and HardFailures must stay empty so exit-code logic
// doesn't report a completed campaign as failed.
func TestRecordOnlyFailure(t *testing.T) {
	st := openStore(t, t.TempDir(), "sim-test")
	o := New(Options{Store: st, Retries: 2})
	calls := 0
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		calls++
		if calls == 1 {
			panic("transient") // consume one retry so Attempts ends at 2
		}
		// NaN is not JSON-marshalable, so the store append of this
		// otherwise-successful result is guaranteed to fail.
		return &sim.Result{Config: cfg, IPC: math.NaN()}, nil
	}
	out, err := o.RunAll(context.Background(), []sim.Config{tinyCfg("433.milc", 0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0] == nil {
		t.Fatal("successful run's result was dropped on store failure")
	}
	if len(out.Failures) != 1 {
		t.Fatalf("got %d failures, want 1", len(out.Failures))
	}
	f := out.Failures[0]
	if !f.RecordOnly {
		t.Fatalf("store failure not marked RecordOnly: %v", f)
	}
	if f.Attempts != 2 {
		t.Fatalf("Attempts = %d, want the real count 2", f.Attempts)
	}
	if !strings.Contains(f.Error(), "record-only") {
		t.Fatalf("failure message hides record-only nature: %v", f)
	}
	if hard := out.HardFailures(); len(hard) != 0 {
		t.Fatalf("record-only failure leaked into HardFailures: %v", hard)
	}
	if rf := out.RecordFailures(); len(rf) != 1 {
		t.Fatalf("RecordFailures = %d, want 1", len(rf))
	}
}

// TestProgressHeartbeat checks the live campaign telemetry: with a
// heartbeat period set, RunAll emits progress lines through Logf and
// always closes with a final complete snapshot.
func TestProgressHeartbeat(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	o := New(Options{
		Workers:  2,
		Progress: 5 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		time.Sleep(10 * time.Millisecond)
		return &sim.Result{Config: cfg}, nil
	}
	cfgs := []sim.Config{
		tinyCfg("433.milc", 0.1), tinyCfg("433.milc", 0.2),
		tinyCfg("433.milc", 0.3), tinyCfg("433.milc", 0.4),
	}
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err() != nil {
		t.Fatal(out.Err())
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no heartbeat lines emitted")
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, "progress: 4/4 done, 0 failed") {
		t.Fatalf("final heartbeat %q does not report the drained campaign", last)
	}
}

// TestResumeProducesIdenticalResults is the acceptance scenario: a
// campaign that dies mid-flight (here: half the runs panic) is resumed
// from its result store, re-runs only the missing configs, and the
// merged results match an uninterrupted campaign exactly.
func TestResumeProducesIdenticalResults(t *testing.T) {
	cfgs := []sim.Config{
		tinyCfg("433.milc", 0),
		tinyCfg("433.milc", 0.2),
		tinyCfg("470.lbm", 0.2),
		tinyCfg("450.soplex", 0.4),
	}

	// Uninterrupted reference campaign.
	ref, err := New(Options{Workers: 2}).RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Err() != nil {
		t.Fatal(ref.Err())
	}

	// First attempt: runs 2 and 3 crash, 0 and 1 complete and are
	// stored.
	st := openStore(t, t.TempDir(), "sim-test")
	crashy := New(Options{Workers: 1, Store: st})
	crashy.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
		if cfg.Workload != "433.milc" {
			panic("mid-campaign failure")
		}
		return sim.RunContext(ctx, cfg)
	}
	first, err := crashy.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Failures) != 2 || first.Ran != 4 {
		t.Fatalf("injected failures misbehaved: ran=%d failures=%v", first.Ran, first.Failures)
	}

	// Resume: only the two missing configs run; the stored pair is
	// reused verbatim.
	resumed, err := New(Options{Workers: 2, Store: st}).RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Err() != nil {
		t.Fatal(resumed.Err())
	}
	if resumed.FromStore != 2 || resumed.Ran != 2 {
		t.Fatalf("resume re-ran stored work: fromStore=%d ran=%d",
			resumed.FromStore, resumed.Ran)
	}
	for i := range cfgs {
		if fingerprint(resumed.Results[i]) != fingerprint(ref.Results[i]) {
			t.Fatalf("config %d: resumed result diverges from uninterrupted run\nresumed: %s\nref:     %s",
				i, fingerprint(resumed.Results[i]), fingerprint(ref.Results[i]))
		}
	}

	// A second resume finds everything stored and runs nothing.
	third, err := New(Options{Workers: 2, Store: st}).RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if third.Ran != 0 || third.FromStore != 4 {
		t.Fatalf("fully stored campaign still ran %d configs", third.Ran)
	}
}

// cliCampaigns reads the campaigns group of the metrics tree.
func cliCampaigns(t *testing.T) map[string]telemetry.Snapshot {
	t.Helper()
	var tree struct{ Campaigns map[string]telemetry.Snapshot }
	if err := json.Unmarshal([]byte(expvar.Get("pinte").String()), &tree); err != nil {
		t.Fatal(err)
	}
	return tree.Campaigns
}

// TestCLICampaignsShareOneSlot: campaigns without a CampaignID (the
// command-line tools) share the campaigns group's empty-ID slot, so
// two campaigns in a row leave one entry there: the later one's.
func TestCLICampaignsShareOneSlot(t *testing.T) {
	before := len(cliCampaigns(t))
	for _, n := range []int{1, 3} {
		o := New(Options{Workers: 1})
		o.run = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			return &sim.Result{Config: cfg, IPC: 1}, nil
		}
		cfgs := make([]sim.Config, n)
		for i := range cfgs {
			cfgs[i] = tinyCfg(fmt.Sprintf("w%d", i), 0.1)
		}
		if _, err := o.RunAll(context.Background(), cfgs); err != nil {
			t.Fatal(err)
		}
	}
	camps := cliCampaigns(t)
	if len(camps) > max(before, 1) {
		t.Fatalf("campaigns group grew from %d to %d entries: %v", before, len(camps), camps)
	}
	if s, ok := camps[""]; !ok || s.Total != 3 || !s.Done() {
		t.Fatalf("CLI slot = %+v, %v; want the later campaign, 3 runs, done", s, ok)
	}
}
