package runner

import (
	"context"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
)

// releaseSweep is a sweep-fan-shaped campaign at tiny budgets: on each
// of five presets an isolation baseline and two P_Induce points (a
// digest group) plus a 2nd-Trace point that runs solo inside the
// group, and a prefetching pair on 433.milc that runs in lockstep.
// It reads six distinct primary streams, more than a two-worker
// campaign may hold at once.
func releaseSweep() []sim.Config {
	small := func(w string, mode sim.Mode, p float64) sim.Config {
		return sim.Config{
			Mode: mode, Workload: w, PInduce: p,
			WarmupInstrs: 8_000, ROIInstrs: 24_000, SampleEvery: 6_000, Seed: 1,
		}
	}
	var cfgs []sim.Config
	for _, w := range []string{"453.povray", "450.soplex", "403.gcc", "470.lbm", "429.mcf"} {
		adv := small(w, sim.SecondTrace, 0)
		adv.Adversary = "470.lbm"
		cfgs = append(cfgs, small(w, sim.Isolation, 0), small(w, sim.PInTE, 0.05), small(w, sim.PInTE, 0.3), adv)
	}
	for _, p := range []float64{0, 0.3} {
		c := small("433.milc", sim.PInTE, p)
		if p == 0 {
			c.Mode = sim.Isolation
		}
		c.Hier.Prefetch = "0IN"
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestCampaignReleasesStreams checks that a replay-cached campaign
// releases every primary stream at its last reader, with fan-out on and
// on the per-run path: results are byte-identical to an uncached
// campaign, each stream is recorded exactly once and released, later
// streams record over the released ones' arenas, and the campaign
// allocates at most Workers+1 streams' worth of arenas. A last case
// sends a point from a fan group to the per-run path (fallback).
func TestCampaignReleasesStreams(t *testing.T) {
	cfgs := releaseSweep()
	const workers, streams = 2, 6
	bound := (workers + 1) * largestStream(t, cfgs)
	ref, err := New(Options{Workers: workers}).RunAll(context.Background(), cfgs)
	want := campaignJSON(t, "uncached", ref, err)

	for _, fan := range []bool{true, false} {
		name := "per-run"
		if fan {
			name = "fan-out"
		}
		t.Run(name, func(t *testing.T) {
			cache := replay.NewCache(0)
			out, err := New(Options{Workers: workers, Fanout: fan, Streams: cache}).
				RunAll(context.Background(), cfgs)
			got := campaignJSON(t, name, out, err)
			for i := range cfgs {
				if got[i] != want[i] {
					t.Errorf("config %d differs from the uncached campaign:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
			st := cache.Snapshot()
			if st.Streams != 0 || st.Misses != streams || st.Released != streams || st.Evictions != 0 {
				t.Errorf("replay cache after the campaign: %s; want each of %d streams recorded once and released", st, streams)
			}
			if st.Allocated > bound || st.Reused == 0 {
				t.Errorf("replay cache after the campaign: %s, %d arena bytes allocated; want at most %d and arenas reused",
					st, st.Allocated, bound)
			}
		})
	}
	t.Run("fallback", testReleaseAfterFallback)
}

// testReleaseAfterFallback kills one point inside a fan group: its
// stream must outlive the group and be released only once the point's
// per-run fallback has finished, which replays the stream rather than
// recording it again.
func testReleaseAfterFallback(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("453.povray", 0.05), tinyCfg("453.povray", 0.3), tinyCfg("453.povray", 0.7)}
	ref, err := New(Options{Workers: 1}).RunAll(context.Background(), cfgs)
	want := campaignJSON(t, "uncached", ref, err)

	// The three followers are hits 1-3 of the panic site: one point
	// dies in the group and its fallback attempt succeeds.
	if err := fault.Apply("seed=1;worker.panic:every=1,after=2,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	cache := replay.NewCache(0)
	var mu sync.Mutex
	released := 0
	var out *Outcome
	d := fanoutDelta(func() {
		out, err = New(Options{
			Workers: 1, Fanout: true, Streams: cache,
			OnResult: func(int, string, *sim.Result, bool) {
				n := int(cache.Snapshot().Released)
				mu.Lock()
				released = max(released, n)
				mu.Unlock()
			},
		}).RunAll(context.Background(), cfgs)
	})
	got := campaignJSON(t, "fallback", out, err)
	for i := range cfgs {
		if got[i] != want[i] {
			t.Errorf("config %d differs from the uncached campaign", i)
		}
	}
	if d["fallback_points"] != 1 {
		t.Fatalf("fallback_points moved by %d, want 1", d["fallback_points"])
	}
	if released != 0 {
		t.Errorf("the stream was released before the last result landed")
	}
	if st := cache.Snapshot(); st.Misses != 1 || st.Released != 1 || st.Streams != 0 {
		t.Errorf("replay cache after the campaign: %s; want the stream recorded once and released", st)
	}
}
