package sim

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// resultJSON canonicalises a result for byte-equality comparison:
// WallTime is the only field allowed to differ between a sequential run
// and its fan-out twin.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	c := *r
	c.WallTime = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkFanEquivalence runs cfgs sequentially and as one fan group and
// requires byte-identical results point by point.
func checkFanEquivalence(t *testing.T, cfgs []Config) {
	t.Helper()
	pts := RunFanGroup(context.Background(), cfgs, 0)
	if len(pts) != len(cfgs) {
		t.Fatalf("got %d points for %d configs", len(pts), len(cfgs))
	}
	for i, cfg := range cfgs {
		if pts[i].Err != nil {
			t.Fatalf("point %d: fan error: %v", i, pts[i].Err)
		}
		seq, err := Run(cfg)
		if err != nil {
			t.Fatalf("point %d: sequential error: %v", i, err)
		}
		if got, want := resultJSON(t, pts[i].Res), resultJSON(t, seq); got != want {
			t.Errorf("point %d (%s mode=%v P=%v): fan result differs from sequential\nfan: %s\nseq: %s",
				i, cfg.Workload, cfg.Mode, cfg.PInduce, got, want)
		}
	}
}

// TestFanoutDigestEquivalence drives the digest executor (capture-mode
// front + followers) across a P_Induce sweep and checks byte-identity
// against sequential runs, per workload archetype.
func TestFanoutDigestEquivalence(t *testing.T) {
	for _, wl := range []string{"453.povray", "433.milc", "450.soplex"} {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			cfgs := []Config{
				tiny(Config{Workload: wl}),
				tiny(Config{Workload: wl, Mode: PInTE, PInduce: 0.05}),
				tiny(Config{Workload: wl, Mode: PInTE, PInduce: 0.5}),
				tiny(Config{Workload: wl, Mode: PInTE, PInduce: 0.05, EngineSeed: 99}),
			}
			checkFanEquivalence(t, cfgs)
		})
	}
}

// TestFanoutDigestNoWarmup covers the warm-up-free edge (the ROI starts
// at instruction zero; the follower arms its sampler at entry).
func TestFanoutDigestNoWarmup(t *testing.T) {
	mk := func(p float64) Config {
		cfg := Config{Workload: "470.lbm", WarmupInstrs: 1, ROIInstrs: 50_000, SampleEvery: 10_000, Seed: 3}
		if p > 0 {
			cfg.Mode, cfg.PInduce = PInTE, p
		}
		return cfg
	}
	// WarmupInstrs cannot be zero post-defaulting; 1 quantises to the
	// first boundary, the smallest representable warm-up.
	checkFanEquivalence(t, []Config{mk(0), mk(0.3)})
}

// TestFanoutMixedGroupEquivalence covers groups the digest executor can
// only partly take: (a) isolation and two PInTE points share a front
// while a SecondTrace point and a telemetry-collecting point run per-run
// beside them; (b) a prefetching group with no eligible member runs
// every point per-run. Every point must match its per-run twin byte for
// byte over a live generator and over a replay cache (recording, then
// replaying), and only the eligible points may count as sharing a
// decode.
func TestFanoutMixedGroupEquivalence(t *testing.T) {
	milc0IN := func(cfg Config) Config {
		cfg = tiny(cfg)
		cfg.Hier.Prefetch = "0IN"
		return cfg
	}
	cases := []struct {
		name   string
		cfgs   []Config
		fanned int64
	}{
		{name: "digest-and-per-run", fanned: 3, cfgs: []Config{
			tiny(Config{Workload: "433.milc"}),
			tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.05}),
			tiny(Config{Workload: "433.milc", Mode: SecondTrace, Adversary: "470.lbm"}),
			tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.5}),
			tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3, TelemetryEvery: 20_000}),
		}},
		{name: "no-eligible-member", fanned: 0, cfgs: []Config{
			milc0IN(Config{Workload: "433.milc"}),
			milc0IN(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3}),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]string, len(tc.cfgs))
			for i, cfg := range tc.cfgs {
				want[i] = resultJSON(t, run(t, cfg))
			}
			cache := replay.NewCache(64 << 20)
			for _, src := range []struct {
				name    string
				streams trace.SourceProvider
			}{
				{"generated", trace.Generate{}},
				{"recording", cache},
				{"replayed", cache},
			} {
				cfgs := append([]Config(nil), tc.cfgs...)
				for i := range cfgs {
					cfgs[i].Streams = src.streams
				}
				before := telemetry.FanoutSnapshot()
				pts := RunFanGroup(context.Background(), cfgs, 0)
				after := telemetry.FanoutSnapshot()
				for i, p := range pts {
					if p.Err != nil {
						t.Fatalf("%s point %d: %v", src.name, i, p.Err)
					}
					if got := resultJSON(t, p.Res); got != want[i] {
						t.Errorf("%s point %d differs from its per-run twin\nfan: %s\nrun: %s",
							src.name, i, got, want[i])
					}
				}
				if got := after["points_fanned"] - before["points_fanned"]; got != tc.fanned {
					t.Errorf("%s: %d points shared a decode, want %d", src.name, got, tc.fanned)
				}
			}
			if st := cache.Snapshot(); st.Hits == 0 {
				t.Fatal("the replayed group never hit the cache")
			}
		})
	}
}

// TestFanoutGroupKey checks the grouping invariant: per-point knobs
// (mode, P_Induce, engine seed, adversaries, extensions) share a key;
// stream-shaping knobs (workload, seed, window) split it.
func TestFanoutGroupKey(t *testing.T) {
	base := tiny(Config{Workload: "453.povray"})
	key := func(c Config) string {
		k, err := FanGroupKey(c)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same := []Config{
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.7}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.1, EngineSeed: 42}),
		tiny(Config{Workload: "453.povray", Mode: SecondTrace, Adversary: "470.lbm"}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.1, TelemetryEvery: 5_000}),
	}
	for i, c := range same {
		if key(c) != key(base) {
			t.Errorf("config %d should share the base group key", i)
		}
	}
	diff := []Config{
		tiny(Config{Workload: "470.lbm"}),
		func() Config { c := tiny(Config{Workload: "453.povray"}); c.Seed = 2; return c }(),
		func() Config { c := tiny(Config{Workload: "453.povray"}); c.ROIInstrs = 40_000; return c }(),
	}
	for i, c := range diff {
		if key(c) == key(base) {
			t.Errorf("config %d should not share the base group key", i)
		}
	}
}

// TestFanoutMixedKeysRejected checks the defensive gate: a group whose
// members cannot share a stream fails every point instead of silently
// desynchronising.
func TestFanoutMixedKeysRejected(t *testing.T) {
	pts := RunFanGroup(context.Background(), []Config{
		tiny(Config{Workload: "453.povray"}),
		tiny(Config{Workload: "470.lbm"}),
	}, 0)
	for i, p := range pts {
		if !errors.Is(p.Err, ErrBadConfig) {
			t.Errorf("point %d: err = %v, want ErrBadConfig", i, p.Err)
		}
	}
}

// TestFanoutCancellation checks a cancelled group aborts promptly and
// every point surfaces the taxonomy error.
func TestFanoutCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{
		tiny(Config{Workload: "453.povray"}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.5}),
	}
	done := make(chan []FanPoint, 1)
	go func() { done <- RunFanGroup(ctx, cfgs, time.Second) }()
	select {
	case pts := <-done:
		for i, p := range pts {
			if p.Err == nil {
				t.Errorf("point %d: completed despite cancelled context", i)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fan group did not abort after cancellation")
	}
}

// TestFanoutReplayBacked runs the digest executor over a replay-cache
// provider, the production configuration, via a recording source.
func TestFanoutReplayBacked(t *testing.T) {
	cfgs := []Config{
		tiny(Config{Workload: "453.povray"}),
		tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.25}),
	}
	// trace.Generate is the default provider; the replay-backed variant
	// lives in the runner tests (internal/replay would be an import
	// cycle here if it imported sim; it does not, but the runner is the
	// layer that wires the cache in production).
	for i := range cfgs {
		cfgs[i].Streams = trace.Generate{}
	}
	checkFanEquivalence(t, cfgs)
}

// TestFanoutDigestBatchStraddle checks the digest executor where its
// small shared batches meet the run's window: a warm-up that ends inside
// a batch, an ROI that is not a multiple of the batch, and a run that
// crosses a 64Ki-record replay chunk. Every point must match its per-run
// twin byte for byte, over a live generator and over a replay cache
// (recording, then replaying).
func TestFanoutDigestBatchStraddle(t *testing.T) {
	cases := []struct {
		name        string
		warmup, roi uint64
	}{
		{name: "warmup-ends-mid-batch", warmup: 10_000, roi: 4 * fanDigestBatch},
		{name: "roi-not-batch-multiple", warmup: 2 * fanDigestBatch, roi: 30_000},
		{name: "roi-crosses-replay-chunk", warmup: 60_000, roi: 20_000},
	}
	if end := cases[2].warmup + cases[2].roi; end <= 1<<16 {
		t.Fatalf("run ends at record %d, inside the first replay chunk", end)
	}
	mk := func(warmup, roi uint64, streams trace.SourceProvider) []Config {
		var cfgs []Config
		for _, p := range []float64{0, 0.1, 0.6} {
			cfg := Config{Workload: "433.milc", WarmupInstrs: warmup, ROIInstrs: roi,
				SampleEvery: 5_000, Seed: 4, Streams: streams}
			if p > 0 {
				cfg.Mode, cfg.PInduce = PInTE, p
			}
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := make([]string, 0, 3)
			for _, cfg := range mk(tc.warmup, tc.roi, nil) {
				want = append(want, resultJSON(t, run(t, cfg)))
			}
			cache := replay.NewCache(64 << 20)
			for _, src := range []struct {
				name    string
				streams trace.SourceProvider
			}{
				{"generated", trace.Generate{}},
				{"recording", cache},
				{"replayed", cache},
			} {
				pts := RunFanGroup(context.Background(), mk(tc.warmup, tc.roi, src.streams), 0)
				for i, p := range pts {
					if p.Err != nil {
						t.Fatalf("%s point %d: %v", src.name, i, p.Err)
					}
					if got := resultJSON(t, p.Res); got != want[i] {
						t.Errorf("%s point %d differs from its per-run twin\nfan: %s\nrun: %s",
							src.name, i, got, want[i])
					}
				}
			}
			if st := cache.Snapshot(); st.Hits == 0 {
				t.Fatal("the replayed group never hit the cache")
			}
		})
	}
}

// TestFanoutDigestGroupAllocs bounds what one steady-state digest group
// allocates: batch-sized decode and digest buffers, a capture front that
// hands its LLC back, and followers drawing their machines from the
// recycle pools. A group sized by 64Ki-record chunks with a live capture
// LLC allocated about 6.4 MiB.
func TestFanoutDigestGroupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of released arrays under the race detector")
	}
	cfgs := []Config{
		{Workload: "453.povray", WarmupInstrs: 20_000, ROIInstrs: 100_000, Seed: 1},
		{Workload: "453.povray", WarmupInstrs: 20_000, ROIInstrs: 100_000, Seed: 1, Mode: PInTE, PInduce: 0.1},
		{Workload: "453.povray", WarmupInstrs: 20_000, ROIInstrs: 100_000, Seed: 1, Mode: PInTE, PInduce: 0.5},
	}
	group := func() {
		for i, p := range RunFanGroup(context.Background(), cfgs, 0) {
			if p.Err != nil {
				t.Fatalf("point %d: %v", i, p.Err)
			}
		}
	}
	group() // fill the pools
	group()
	const groups = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < groups; i++ {
		group()
	}
	runtime.ReadMemStats(&after)
	perGroup := (after.TotalAlloc - before.TotalAlloc) / groups
	t.Logf("%d bytes allocated per group", perGroup)
	if perGroup >= 1<<20 {
		t.Fatalf("a steady-state digest group allocated %d bytes, want < 1 MiB", perGroup)
	}
}
