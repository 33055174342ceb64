package runner

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/phase"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// phaseDelta runs f and returns how much each phase-sampling counter
// moved.
func phaseDelta(f func()) map[string]int64 {
	before := telemetry.PhaseSnapshot()
	f()
	after := telemetry.PhaseSnapshot()
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// phasedSweep is the sample-check campaign: an isolation baseline plus a
// 12-point P_Induce sweep over 403.gcc, whose preset alternates two
// region-weight mixtures every 200k instructions — a genuinely phased
// workload the clusterer must find at least two phases in.
func phasedSweep() []sim.Config {
	points := []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	cfgs := []sim.Config{{
		Workload: "403.gcc", WarmupInstrs: 128_000, ROIInstrs: 1_024_000, Seed: 9,
	}}
	for _, p := range points {
		cfgs = append(cfgs, sim.Config{
			Mode: sim.PInTE, Workload: "403.gcc", PInduce: p,
			WarmupInstrs: 128_000, ROIInstrs: 1_024_000, Seed: 9,
		})
	}
	return cfgs
}

// TestSampleCampaignSavings is the campaign half of the make
// sample-check gate: a sampled 12-point sweep must pay one shared
// profile plus per-run window budgets that together come in at least 5x
// under the full-ROI instruction budget, while every run completes and
// carries its extrapolation error bounds.
func TestSampleCampaignSavings(t *testing.T) {
	cfgs := phasedSweep()
	var out *Outcome
	var err error
	d := phaseDelta(func() {
		out, err = New(Options{
			Workers: 4, Sample: true, Streams: replay.NewCache(0),
		}).RunAll(context.Background(), cfgs)
	})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("sampled campaign: err=%v failures=%v", err, out.Failures)
	}
	if d["profile_runs"] != 1 || d["plans_built"] != 1 {
		t.Fatalf("profiles=%d plans=%d, want one shared profile and plan",
			d["profile_runs"], d["plans_built"])
	}
	if d["phases_found"] < 2 {
		t.Errorf("phased preset clustered into %d phase(s)", d["phases_found"])
	}
	if d["sampled_runs"] != int64(len(cfgs)) || d["sampled_fallbacks"] != 0 {
		t.Errorf("sampled_runs=%d fallbacks=%d, want %d and 0",
			d["sampled_runs"], d["sampled_fallbacks"], len(cfgs))
	}

	// Budget accounting: the sampled campaign pays the one full-detail
	// profile (warmup + ROI) plus each run's window budget; a full-ROI
	// campaign would pay warmup + ROI for every config.
	var fullBudget, sampledCost uint64
	sampledCost = cfgs[0].WarmupInstrs + cfgs[0].ROIInstrs // the shared profile
	for i, cfg := range cfgs {
		fullBudget += cfg.WarmupInstrs + cfg.ROIInstrs
		res := out.Results[i]
		if res == nil {
			t.Fatalf("config %d lost", i)
		}
		if res.Sampled == nil {
			t.Fatalf("config %d has no SampleStats", i)
		}
		if res.Sampled.Phases < 2 {
			t.Errorf("config %d sampled with %d phase(s)", i, res.Sampled.Phases)
		}
		sampledCost += res.Sampled.InstrsSimulated
	}
	if sampledCost*5 > fullBudget {
		t.Errorf("sampled campaign simulated %d of %d instrs — less than 5x savings",
			sampledCost, fullBudget)
	}
	t.Logf("sampled campaign: %d of %d instrs simulated (%.1fx savings)",
		sampledCost, fullBudget, float64(fullBudget)/float64(sampledCost))
}

// TestSampleIneligibleStaysFull checks configs the sampler cannot serve
// (here: one collecting telemetry) run the full-ROI path inside a
// sampled campaign, untouched and with their telemetry intact.
func TestSampleIneligibleStaysFull(t *testing.T) {
	full := tinyCfg("470.lbm", 0.3)
	full.TelemetryEvery = 10_000
	cfgs := []sim.Config{tinyCfg("470.lbm", 0.3), full}
	ref, err := sim.Run(full)
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(Options{Workers: 2, Sample: true}).RunAll(context.Background(), cfgs)
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("campaign: err=%v failures=%v", err, out.Failures)
	}
	if out.Results[0].Sampled == nil {
		t.Error("eligible config was not sampled")
	}
	got := out.Results[1]
	if got.Sampled != nil {
		t.Error("telemetry-collecting config was sampled")
	}
	if got.Telemetry == nil || fingerprint(got) != fingerprint(ref) {
		t.Error("ineligible config's full-ROI result diverged from a plain run")
	}
}

// TestChaosSampledPlanFallsBackToFullRun hands the executor a poisoned
// plan (no usable windows) through the profile stage's analyze step: the
// sampled attempt must fail, strip the plan without consuming retry
// budget, and the same-seed full-ROI rerun must deliver the exact
// unsampled result.
func TestChaosSampledPlanFallsBackToFullRun(t *testing.T) {
	cfg := tinyCfg("433.milc", 0.2)
	ref, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := New(Options{Workers: 1, Sample: true}) // Retries: 0 — the fallback must be free
	analyzed := 0
	o.analyze = func(*sim.Result, uint64) (*phase.Plan, error) {
		analyzed++
		return &phase.Plan{
			Phases: 1, Intervals: 1,
			Windows: []phase.Window{{Start: 0, End: 0, CoverInstrs: 0}},
		}, nil
	}
	var out *Outcome
	d := phaseDelta(func() {
		out, err = o.RunAll(context.Background(), []sim.Config{cfg})
	})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("campaign: err=%v failures=%v", err, out.Failures)
	}
	if analyzed != 1 {
		t.Fatalf("analyze ran %d times, want 1 (the config was not planned as a sampled candidate)", analyzed)
	}
	if d["sampled_fallbacks"] != 1 {
		t.Errorf("sampled_fallbacks moved by %d, want 1", d["sampled_fallbacks"])
	}
	if out.Results[0] == nil || out.Results[0].Sampled != nil {
		t.Fatal("fallback result missing or still sampled")
	}
	if fingerprint(out.Results[0]) != fingerprint(ref) {
		t.Error("fallback result diverged from a plain full-ROI run")
	}
}

// TestChaosSampledCorruptChunkFailover rots a sealed replay chunk under
// a sampled campaign: the replayer's generator failover is bit-identical,
// so every sampled result must match a fault-free sampled campaign —
// degraded and counted, never wrong.
func TestChaosSampledCorruptChunkFailover(t *testing.T) {
	cfgs := phasedSweep()[:4] // baseline + three points: enough to share one recorded stream
	clean, err := New(Options{
		Workers: 1, Sample: true, Streams: replay.NewCache(0),
	}).RunAll(context.Background(), cfgs)
	if err != nil || len(clean.Failures) != 0 {
		t.Fatalf("clean campaign: err=%v failures=%v", err, clean.Failures)
	}

	fault.Enable(1)
	fault.Set(fault.SiteReplayCorrupt, fault.Spec{Every: 1, After: 1, Limit: 1})
	defer fault.Disable()
	corruptBefore := telemetry.Degraded.ReplayCorruptChunks.Load()
	out, err := New(Options{
		Workers: 1, Sample: true, Streams: replay.NewCache(0),
	}).RunAll(context.Background(), cfgs)
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("chaos campaign: err=%v failures=%v", err, out.Failures)
	}
	if got := telemetry.Degraded.ReplayCorruptChunks.Load() - corruptBefore; got < 1 {
		t.Fatalf("corrupt-chunk counter moved by %d, want >= 1 (fault never fired)", got)
	}
	for i := range cfgs {
		if out.Results[i] == nil || fingerprint(out.Results[i]) != fingerprint(clean.Results[i]) {
			t.Errorf("config %d: sampled result diverged after corrupt-chunk failover", i)
		}
	}
}

// pipelineSweep is a sampled campaign over six presets, an isolation
// baseline and two P_Induce points each, plus second profile groups on
// the streams of the first two presets: the same workload and seed
// under other budgets, last in the input.
func pipelineSweep() []sim.Config {
	var cfgs []sim.Config
	for _, w := range []string{"433.milc", "470.lbm", "450.soplex", "453.povray", "403.gcc", "429.mcf"} {
		for _, p := range []float64{0, 0.1, 0.5} {
			c := tinyCfg(w, p)
			if p == 0 {
				c.Mode = sim.Isolation
			}
			cfgs = append(cfgs, c)
		}
	}
	for _, w := range []string{"433.milc", "470.lbm"} {
		for _, p := range []float64{0.2, 0.4} {
			c := tinyCfg(w, p)
			c.WarmupInstrs, c.ROIInstrs = 16_000, 60_000
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// largestStream is the arena bytes of the largest primary stream cfgs
// read, each recorded alone to the longest warm-up plus ROI of its
// configs and a few core batches past it.
func largestStream(t *testing.T, cfgs []sim.Config) int64 {
	t.Helper()
	type stream struct {
		fp         string
		seed, base uint64
	}
	spans := map[stream]uint64{}
	specs := map[stream]trace.Spec{}
	for _, c := range cfgs {
		spec, seed, base, err := sim.PrimaryStream(c)
		if err != nil {
			t.Fatal(err)
		}
		k := stream{spec.Fingerprint(), seed, base}
		specs[k] = spec
		spans[k] = max(spans[k], c.WarmupInstrs+c.ROIInstrs+4096)
	}
	var largest int64
	for k, n := range spans {
		c := replay.NewCache(0)
		src, err := c.Source(specs[k], k.seed, k.base)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.NextBatch(make([]trace.Record, n)); err != nil {
			t.Fatal(err)
		}
		largest = max(largest, c.Snapshot().Bytes)
	}
	return largest
}

// TestSamplePipelineStreams checks a sampled campaign runs group by
// group and releases each group's recorded stream after its last
// reader: on two workers of its own and on a two-worker shared pool,
// the replay cache never holds more than Workers+1 streams when a
// result lands, every stream is recorded exactly once (two groups
// share each of the first two presets' streams), and the results are
// byte-identical to the same campaign on one worker. Released streams'
// arenas are recycled, so the campaign allocates at most Workers+1
// streams' worth of arenas, and every byte it allocated ends on the
// cache's free list.
func TestSamplePipelineStreams(t *testing.T) {
	cfgs := pipelineSweep()
	const workers, streams = 2, 6
	bound := (workers + 1) * largestStream(t, cfgs)
	ref, err := New(Options{Workers: 1, Sample: true, Streams: replay.NewCache(0)}).
		RunAll(context.Background(), cfgs)
	want := campaignJSON(t, "one worker", ref, err)

	for _, pooled := range []bool{false, true} {
		name := "own-workers"
		if pooled {
			name = "shared-pool"
		}
		t.Run(name, func(t *testing.T) {
			cache := replay.NewCache(0)
			var mu sync.Mutex
			peak := 0
			opts := Options{
				Workers: workers, Sample: true, Streams: cache,
				OnResult: func(int, string, *sim.Result, bool) {
					n := cache.Snapshot().Streams
					mu.Lock()
					peak = max(peak, n)
					mu.Unlock()
				},
			}
			if pooled {
				p := NewPool(workers)
				defer p.Close()
				opts.Pool = p
			}
			var out *Outcome
			d := phaseDelta(func() { out, err = New(opts).RunAll(context.Background(), cfgs) })
			got := campaignJSON(t, name, out, err)
			for i := range cfgs {
				if got[i] != want[i] {
					t.Errorf("config %d differs from the one-worker campaign:\n got %s\nwant %s", i, got[i], want[i])
				}
				if out.Results[i].Sampled == nil {
					t.Errorf("config %d was not sampled", i)
				}
			}
			if d["profile_runs"] != 8 {
				t.Errorf("%d profiles ran, want 8", d["profile_runs"])
			}
			if peak > workers+1 {
				t.Errorf("the cache held %d streams when a result landed, want at most %d", peak, workers+1)
			}
			st := cache.Snapshot()
			if st.Misses != streams || st.Released != streams || st.Streams != 0 || st.Evictions != 0 {
				t.Errorf("replay cache after the campaign: %s; want each of %d streams recorded once and released", st, streams)
			}
			if st.Allocated > bound || st.Reused == 0 || st.FreeBytes != st.Allocated {
				t.Errorf("replay cache after the campaign: %s, %d arena bytes allocated, %d free; want at most %d allocated, arenas reused and all of them free",
					st, st.Allocated, st.FreeBytes, bound)
			}
		})
	}
}

// TestChaosSampledPipelineFaultCancel fails one group's profile with an
// injected source fault and cancels the campaign part-way through the
// pipeline, on the campaign's own workers and on a shared pool. Every
// config must get exactly one outcome — a sampled result equal to the
// fault-free campaign's, a full-ROI result equal to the unsampled
// campaign's, or an ErrCanceled failure — and RunAll must return
// without leaving a worker goroutine behind.
func TestChaosSampledPipelineFaultCancel(t *testing.T) {
	cfgs := pipelineSweep()
	sampled, err := New(Options{Workers: 2, Sample: true}).RunAll(context.Background(), cfgs)
	wantSampled := campaignJSON(t, "sampled", sampled, err)
	full, err := New(Options{Workers: 2}).RunAll(context.Background(), cfgs)
	wantFull := campaignJSON(t, "full", full, err)

	for _, pooled := range []bool{false, true} {
		name := "own-workers"
		if pooled {
			name = "shared-pool"
		}
		t.Run(name, func(t *testing.T) {
			var pool *Pool
			if pooled {
				pool = NewPool(2)
				defer pool.Close()
			}
			before := runtime.NumGoroutine()
			if err := fault.Apply("seed=1;sim.source:every=1,limit=1"); err != nil {
				t.Fatal(err)
			}
			defer fault.Disable()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var landed atomic.Int32
			var out *Outcome
			d := phaseDelta(func() {
				out, err = New(Options{
					Workers: 2, Sample: true, Streams: replay.NewCache(0), Pool: pool,
					OnResult: func(int, string, *sim.Result, bool) {
						if landed.Add(1) == 6 {
							cancel()
						}
					},
				}).RunAll(ctx, cfgs)
			})
			fired := fault.Snapshot()[fault.SiteSimSource].Fires
			fault.Disable()
			if err != nil {
				t.Fatalf("campaign-level error: %v", err)
			}
			// The first stream any task opens is a profile's: members wait
			// for theirs. The cancellation may fail more profiles.
			if fired != 1 || d["profile_failures"] < 1 {
				t.Errorf("the fault fired %d times and %d profiles failed, want one fault failing a profile",
					fired, d["profile_failures"])
			}
			failures := make([]int, len(cfgs))
			for _, f := range out.Failures {
				failures[f.Index]++
				if !errors.Is(f.Err, sim.ErrCanceled) {
					t.Errorf("config %d failed with %v, want ErrCanceled", f.Index, f.Err)
				}
			}
			var nSampled, nFull, nCanceled int
			for i, res := range out.Results {
				switch {
				case res == nil && failures[i] == 1:
					nCanceled++
					continue
				case res == nil || failures[i] != 0:
					t.Errorf("config %d: result %v with %d failures, want exactly one outcome", i, res != nil, failures[i])
					continue
				}
				r := *res
				r.WallTime = 0
				b, err := json.Marshal(&r)
				if err != nil {
					t.Fatal(err)
				}
				want := wantFull[i]
				if res.Sampled != nil {
					want = wantSampled[i]
					nSampled++
				} else {
					nFull++
				}
				if string(b) != want {
					t.Errorf("config %d (sampled %v) differs from its fault-free result", i, res.Sampled != nil)
				}
			}
			t.Logf("%d sampled, %d full-ROI fallbacks, %d canceled", nSampled, nFull, nCanceled)
			if nCanceled == 0 {
				t.Error("the cancellation reached no config")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%d goroutines after RunAll, %d before: a worker leaked", n, before)
			}
		})
	}
}
