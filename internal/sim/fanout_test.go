package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
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

// TestFanoutDigestNoWarmup covers the shortest warm-up a config can
// have: a zero WarmupInstrs defaults to 200k, so one instruction, which
// ends warm-up at the first quantum boundary, is the closest a run gets
// to starting its ROI at instruction zero.
func TestFanoutDigestNoWarmup(t *testing.T) {
	mk := func(p float64) Config {
		cfg := Config{Workload: "470.lbm", WarmupInstrs: 1, ROIInstrs: 50_000, SampleEvery: 10_000, Seed: 3}
		if p > 0 {
			cfg.Mode, cfg.PInduce = PInTE, p
		}
		return cfg
	}
	checkFanEquivalence(t, []Config{mk(0), mk(0.3)})
}

// twoLoads wraps the generator so records stress the load-operand rule:
// every Load0 is dependent, and every other record with Load0 alone
// loads the same address again as Load1. Generated records never carry
// a dependent Load0 beside a Load1, so without this a follower that
// priced a Load1 miss as Load0's would still match its per-run twin.
type twoLoads struct{}

func (twoLoads) Source(spec trace.Spec, seed, base uint64) (trace.Source, error) {
	g, err := trace.Generate{}.Source(spec, seed, base)
	return &twoLoadSource{Source: g}, err
}

type twoLoadSource struct {
	trace.Source
	n uint64
}

func (s *twoLoadSource) NextBatch(recs []trace.Record) (int, error) {
	n, err := s.Source.NextBatch(recs)
	for i := range recs[:n] {
		r := &recs[i]
		if r.Load0 == 0 {
			continue
		}
		r.Dependent = true
		if s.n++; r.Load1 == 0 && s.n%2 == 0 {
			r.Load1 = r.Load0
		}
	}
	return n, err
}

func (s *twoLoadSource) Next(rec *trace.Record) error {
	var one [1]trace.Record
	if _, err := s.NextBatch(one[:]); err != nil {
		return err
	}
	*rec = one[0]
	return nil
}

// TestFanoutDigestLoadOperands checks that the front gives each Load
// event to the operand that issued it, equal addresses included, over
// records whose Load0 is dependent, so a Load event priced as the wrong
// operand changes the stall.
func TestFanoutDigestLoadOperands(t *testing.T) {
	var cfgs []Config
	for _, p := range []float64{0, 0.4} {
		cfg := tiny(Config{Workload: "433.milc", Streams: twoLoads{}})
		if p > 0 {
			cfg.Mode, cfg.PInduce = PInTE, p
		}
		cfgs = append(cfgs, cfg)
	}
	checkFanEquivalence(t, cfgs)
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
// allocates: two fixed-capacity digest slabs (80 KiB), a front that
// reads its source through the core's recycled batch buffer and hands
// its LLC back, and followers drawing their machines from the recycle
// pools. It measured 135,800 bytes; the bound is that plus 24%.
// Followers that read the trace through a shared 4096-record decode
// buffer, with digests grown by append, allocated 322,640 bytes, and
// 64Ki-record batches with a live capture LLC about 6.4 MiB. The slabs
// must come out of a group with the capacities they were built with: a
// digest that outgrew one would have been copied.
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
	// A GC inside a round empties the recycle pools, and the next group
	// rebuilds its machines: the steady state is the cheapest round.
	const rounds, groups = 5, 4
	perGroup := uint64(math.MaxUint64)
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < groups; i++ {
			group()
		}
		runtime.ReadMemStats(&after)
		perGroup = min(perGroup, (after.TotalAlloc-before.TotalAlloc)/groups)
	}
	t.Logf("%d bytes allocated per group", perGroup)
	const bound = 169_000
	if perGroup >= bound {
		t.Fatalf("a steady-state digest group allocated %d bytes, want < %d", perGroup, bound)
	}

	fr, pts := runDigest(t, context.Background(), cfgs, 0)
	for i, p := range pts {
		if p.Err != nil {
			t.Fatalf("point %d: %v", i, p.Err)
		}
	}
	for i := range fr.slabs {
		s := &fr.slabs[i]
		if cap(s.ops) != fanDigestBatch || cap(s.events) != slabEvents || cap(s.wbs) != slabWBs {
			t.Errorf("slab %d ends with capacities %d/%d/%d, built with %d/%d/%d", i,
				cap(s.ops), cap(s.events), cap(s.wbs), fanDigestBatch, slabEvents, slabWBs)
		}
	}
	checkSlabsHome(t, fr)
}

// runDigest runs cfgs as one digest group, the way RunFanGroup runs its
// eligible points, and returns the group's front once its goroutine has
// finished.
func runDigest(t *testing.T, ctx context.Context, cfgs []Config, grace time.Duration) (*fanFront, []FanPoint) {
	t.Helper()
	norm := make([]Config, len(cfgs))
	idx := make([]int, len(cfgs))
	for i, c := range cfgs {
		norm[i], idx[i] = c.withDefaults(), i
	}
	ch := make(chan fanDone, len(cfgs))
	fr, err := startFanDigest(norm, idx, ch)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]FanPoint, len(cfgs))
	collected := make(chan struct{})
	go func() {
		collectFan(ctx, fr, ch, grace, pts)
		close(collected)
	}()
	for _, c := range []chan struct{}{collected, fr.done} {
		select {
		case <-c:
		case <-time.After(30 * time.Second):
			t.Fatal("digest group wedged")
		}
	}
	return fr, pts
}

// checkSlabsHome requires every slab of a finished group back with the
// front, released by every follower it was sent to.
func checkSlabsHome(t *testing.T, fr *fanFront) {
	t.Helper()
	if n := len(fr.free); n != len(fr.slabs) {
		t.Errorf("%d of %d slabs released after the group", n, len(fr.slabs))
	}
	for i := range fr.slabs {
		if r := fr.slabs[i].refs; r != 0 {
			t.Errorf("slab %d still counts %d holders", i, r)
		}
	}
}

// TestFanoutSlabHandoff fails one follower of a 3-point digest group as it
// takes its k'th slab, by error and by panic. The front and the two
// siblings must finish with their per-run results, the failed point must
// carry its own error, and every slab must come back to the front.
func TestFanoutSlabHandoff(t *testing.T) {
	cfgs := []Config{
		tiny(Config{Workload: "433.milc"}),
		tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.1}),
		tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.6}),
	}
	want := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = resultJSON(t, run(t, cfg))
	}
	errBoom := errors.New("follower failed")
	defer func() { fanTakeHook = nil }()
	for _, panics := range []bool{false, true} {
		for _, seat := range []int{0, 2} {
			for _, k := range []int{0, 1, 3} {
				fanTakeHook = func(_ *fanFront, j, n int) error {
					if j != seat || n != k {
						return nil
					}
					if panics {
						panic(errBoom)
					}
					return errBoom
				}
				fr, pts := runDigest(t, context.Background(), cfgs, 0)
				for i, p := range pts {
					switch {
					case i == seat && panics:
						if !errors.Is(p.Err, ErrPanic) {
							t.Errorf("panic, seat %d, slab %d: failed point reports %v", seat, k, p.Err)
						}
					case i == seat:
						if !errors.Is(p.Err, errBoom) {
							t.Errorf("error, seat %d, slab %d: failed point reports %v", seat, k, p.Err)
						}
					case p.Err != nil:
						t.Errorf("seat %d failing at slab %d failed sibling %d: %v", seat, k, i, p.Err)
					case resultJSON(t, p.Res) != want[i]:
						t.Errorf("seat %d failing at slab %d changed sibling %d's result", seat, k, i)
					}
				}
				checkSlabsHome(t, fr)
			}
		}
	}
}

// TestFanoutAbortReleasesWaitingFront wedges one follower on the first
// slab it takes. The front sends it the second slab and then waits for a
// release that never comes. Cancelling the group must wake the front,
// fail the live sibling with the context's error and abandon the wedged
// point after its grace, releasing the slabs it holds and was sent.
func TestFanoutAbortReleasesWaitingFront(t *testing.T) {
	cfgs := []Config{
		tiny(Config{Workload: "433.milc"}),
		tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3}),
	}
	wedged, unwedge := make(chan *fanFront, 1), make(chan struct{})
	defer func() { fanTakeHook = nil }()
	fanTakeHook = func(fr *fanFront, j, k int) error {
		if j == 0 && k == 0 {
			wedged <- fr
			<-unwedge
		}
		return nil
	}
	const grace = time.Second
	ctx, cancel := context.WithCancel(context.Background())
	woken := make(chan bool, 1)
	go func() {
		fr := <-wedged
		// The second slab in the wedged seat's inbox means the front has
		// sealed it and gone on to wait for a free slab.
		for len(fr.seats[0].inbox) == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		// Abandoning the wedged point would free its slabs after grace;
		// the front must end well before that, on the abort alone.
		select {
		case <-fr.done:
			woken <- true
		case <-time.After(grace / 2):
			woken <- false
		}
	}()
	fr, pts := runDigest(t, ctx, cfgs, grace)
	close(unwedge)
	if !<-woken {
		t.Error("the abort did not wake the front waiting for a slab")
	}
	if !errors.Is(pts[0].Err, ErrStalled) {
		t.Errorf("wedged point reports %v, want ErrStalled", pts[0].Err)
	}
	if !errors.Is(pts[1].Err, ErrCanceled) {
		t.Errorf("live point reports %v, want ErrCanceled", pts[1].Err)
	}
	checkSlabsHome(t, fr)
}
