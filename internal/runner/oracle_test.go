package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/partition"
	"repro/internal/replacement"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// genCampaign derives a small valid campaign from seed: two to five
// configs sharing one preset (an index into all 49), tiny budgets and a
// common hierarchy, so fan-out groups form. Each point varies what a
// sweep varies — mode, P_Induce, adversary, partitioning or a way cap,
// telemetry, independent injection, DRAM contention — and now and then
// its own replacement policy, inclusion or prefetchers, which moves it
// to another stream group.
func genCampaign(seed uint64, preset int) []sim.Config {
	r := rand.New(rand.NewSource(int64(seed)))
	names := trace.Names()
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	prefetch := func() string {
		b := []byte("000")
		for i := range b {
			b[i] = "0NI"[r.Intn(3)]
		}
		return string(b)
	}
	inclusions := []cache.Inclusion{cache.NonInclusive, cache.Inclusive, cache.Exclusive}

	base := sim.Config{
		Workload:     names[preset],
		WarmupInstrs: uint64(1000 * (1 + r.Intn(3))),
		ROIInstrs:    uint64(4000 * (1 + r.Intn(3))),
		Seed:         uint64(1 + r.Intn(4)),
	}
	base.SampleEvery = base.ROIInstrs / 2
	base.Hier.LLC.Policy = pick(replacement.Names())
	if r.Intn(4) == 0 {
		base.Hier.Inclusion = inclusions[r.Intn(3)]
	}
	if r.Intn(4) == 0 {
		base.Hier.Prefetch = prefetch()
	}

	sweep := pinte.DefaultSweep()
	cfgs := make([]sim.Config, 2+r.Intn(4))
	for i := range cfgs {
		c := base
		switch r.Intn(6) {
		case 0:
			c.Mode = sim.Isolation
		case 1:
			c.Mode, c.Adversary = sim.SecondTrace, pick(names)
		default:
			c.Mode, c.PInduce = sim.PInTE, sweep[r.Intn(len(sweep))]
			if r.Intn(6) == 0 {
				c.IndependentPeriod = c.ROIInstrs / 8
			}
		}
		switch r.Intn(8) {
		case 0:
			c.Partitioning = pick(partition.Names())
		case 1:
			c.LLCWayAllocation = 1 + r.Intn(16)
		}
		if r.Intn(5) == 0 {
			c.TelemetryEvery = c.ROIInstrs / 4
		}
		if r.Intn(8) == 0 {
			c.DRAMContentionProb, c.DRAMContentionPenalty = 0.25, 40
		}
		switch r.Intn(10) {
		case 0:
			c.Hier.LLC.Policy = pick(replacement.Names())
		case 1:
			c.Hier.Inclusion = inclusions[r.Intn(3)]
		case 2:
			c.Hier.Prefetch = prefetch()
		}
		cfgs[i] = c
	}
	return cfgs
}

// campaignJSON encodes a campaign's results for byte comparison, with
// the one field that legitimately differs between runs (wall time)
// cleared.
func campaignJSON(t *testing.T, path string, out *Outcome, err error) []string {
	t.Helper()
	if err == nil {
		err = out.Err()
	}
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	enc := make([]string, len(out.Results))
	for i, res := range out.Results {
		r := *res
		r.WallTime = 0
		b, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		enc[i] = string(b)
	}
	return enc
}

// FuzzCampaignPaths is the differential oracle over the campaign
// executors: every generated campaign runs on the plain per-run path
// (the reference), on replayed streams, with fan-out over replayed
// streams, and warm from a result store that a cold pass filled. All
// four must give byte-identical results, fan-out must place every point
// without a fallback, and the warm pass must be served entirely from
// the store. The seed corpus covers all 49 presets.
func FuzzCampaignPaths(f *testing.F) {
	for p := range trace.Names() {
		f.Add(uint64(p), uint8(p))
	}
	f.Fuzz(func(t *testing.T, seed uint64, preset uint8) {
		cfgs := genCampaign(seed, int(preset)%len(trace.Names()))
		ctx := context.Background()
		run := func(path string, opts Options) []string {
			opts.Workers = 1
			out, err := New(opts).RunAll(ctx, cfgs)
			return campaignJSON(t, path, out, err)
		}
		ref := run("per-run", Options{})
		paths := map[string][]string{"replay": run("replay", Options{Streams: replay.NewCache(0)})}
		// Nothing is injected, so a fan-out point that falls back to the
		// per-run path marks a group the executor could not run — and a
		// fallback would hide a wrong result behind a correct rerun.
		d := fanoutDelta(func() {
			paths["fanout+replay"] = run("fanout+replay", Options{Fanout: true, Streams: replay.NewCache(0)})
		})
		if d["fallback_points"] != 0 {
			t.Errorf("fan-out fell back on %d points without a fault", d["fallback_points"])
		}
		st := openStore(t, t.TempDir(), "sim-oracle")
		run("cold store", Options{Store: st})
		warm, err := New(Options{Workers: 1, Store: st}).RunAll(ctx, cfgs)
		paths["warm store"] = campaignJSON(t, "warm store", warm, err)
		if warm.FromStore != len(cfgs) || warm.Ran != 0 {
			t.Errorf("warm store pass: FromStore=%d Ran=%d, want %d/0", warm.FromStore, warm.Ran, len(cfgs))
		}
		for path, got := range paths {
			for i := range cfgs {
				if got[i] != ref[i] {
					t.Errorf("%s diverged from per-run on config %d (%s):\n got %s\nwant %s",
						path, i, describe(cfgs[i]), got[i], ref[i])
				}
			}
		}
	})
}

// describe names a generated config's varied fields for a failure.
func describe(c sim.Config) string {
	return fmt.Sprintf("%s %s p=%g adv=%q llc=%s incl=%d pf=%q part=%q ways=%d tel=%d indep=%d dram=%g seed=%d",
		c.Mode, c.Workload, c.PInduce, c.Adversary, c.Hier.LLC.Policy, c.Hier.Inclusion, c.Hier.Prefetch,
		c.Partitioning, c.LLCWayAllocation, c.TelemetryEvery, c.IndependentPeriod, c.DRAMContentionProb, c.Seed)
}
