package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fanoutDelta runs f and returns how much each fan-out counter moved.
func fanoutDelta(f func()) map[string]int64 {
	before := telemetry.FanoutSnapshot()
	f()
	after := telemetry.FanoutSnapshot()
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// TestFanoutRunAllEquivalence is the campaign-level determinism gate for
// the fan-out scheduler: a sweep run with Fanout on must produce results
// indistinguishable from the per-run pool, while actually sharing one
// decode per (workload, seed) group.
func TestFanoutRunAllEquivalence(t *testing.T) {
	var cfgs []sim.Config
	for _, wl := range []string{"453.povray", "450.soplex"} {
		for _, p := range []float64{0.05, 0.3, 0.7} {
			cfgs = append(cfgs, tinyCfg(wl, p))
		}
	}
	seq, err := New(Options{Workers: 2}).RunAll(context.Background(), cfgs)
	if err != nil || len(seq.Failures) != 0 {
		t.Fatalf("sequential campaign: err=%v failures=%v", err, seq.Failures)
	}
	var fan *Outcome
	d := fanoutDelta(func() {
		fan, err = New(Options{Workers: 2, Fanout: true}).RunAll(context.Background(), cfgs)
	})
	if err != nil || len(fan.Failures) != 0 {
		t.Fatalf("fan-out campaign: err=%v failures=%v", err, fan.Failures)
	}
	for i := range cfgs {
		if fingerprint(fan.Results[i]) != fingerprint(seq.Results[i]) {
			t.Errorf("config %d: fan-out result differs from sequential", i)
		}
	}
	if d["groups_formed"] != 2 || d["points_fanned"] != 6 {
		t.Errorf("groups=%d points=%d, want 2 groups over 6 points", d["groups_formed"], d["points_fanned"])
	}
	if d["decode_passes"] != 2 || d["decode_passes_saved"] != 4 {
		t.Errorf("decode passes=%d saved=%d, want 2 and 4 (one decode per group)",
			d["decode_passes"], d["decode_passes_saved"])
	}
	if fan.Ran != len(cfgs) {
		t.Errorf("Ran = %d, want %d", fan.Ran, len(cfgs))
	}
}

// TestFanoutRunAllMixedGroups is the campaign-level gate for groups the
// digest executor can only partly take: each preset's isolation and
// PInTE points share a front while its 2nd-Trace point runs per-run
// inside the same group, and a prefetching pair with no eligible member
// runs both points per-run. Results must match the per-run campaign,
// and only the eligible points may count as sharing a decode.
func TestFanoutRunAllMixedGroups(t *testing.T) {
	var cfgs []sim.Config
	for _, wl := range []string{"453.povray", "450.soplex"} {
		iso := tinyCfg(wl, 0)
		iso.Mode = sim.Isolation
		adv := tinyCfg(wl, 0)
		adv.Mode, adv.Adversary = sim.SecondTrace, "470.lbm"
		cfgs = append(cfgs, iso, tinyCfg(wl, 0.05), tinyCfg(wl, 0.3), adv)
	}
	for _, p := range []float64{0, 0.3} {
		c := tinyCfg("433.milc", p)
		if p == 0 {
			c.Mode = sim.Isolation
		}
		c.Hier.Prefetch = "0IN"
		cfgs = append(cfgs, c)
	}
	seq, err := New(Options{Workers: 2}).RunAll(context.Background(), cfgs)
	if err != nil || len(seq.Failures) != 0 {
		t.Fatalf("per-run campaign: err=%v failures=%v", err, seq.Failures)
	}
	var fan *Outcome
	d := fanoutDelta(func() {
		fan, err = New(Options{Workers: 2, Fanout: true, Streams: replay.NewCache(64 << 20)}).
			RunAll(context.Background(), cfgs)
	})
	if err != nil || len(fan.Failures) != 0 {
		t.Fatalf("fan-out campaign: err=%v failures=%v", err, fan.Failures)
	}
	for i := range cfgs {
		if fingerprint(fan.Results[i]) != fingerprint(seq.Results[i]) {
			t.Errorf("config %d (%s %s): fan-out result differs from per-run", i, cfgs[i].Workload, cfgs[i].Mode)
		}
	}
	want := map[string]int64{
		"groups_formed": 3, "fallback_points": 0,
		"decode_passes": 2, "points_fanned": 6, "decode_passes_saved": 4,
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("%s moved by %d, want %d", k, d[k], v)
		}
	}
}

// TestFanoutSingletonBypass checks points with no stream-mates skip the
// fan phase entirely and run on the per-run pool.
func TestFanoutSingletonBypass(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("433.milc", 0.1), tinyCfg("470.lbm", 0.2)}
	var out *Outcome
	var err error
	d := fanoutDelta(func() {
		out, err = New(Options{Workers: 2, Fanout: true}).RunAll(context.Background(), cfgs)
	})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("campaign: err=%v failures=%v", err, out.Failures)
	}
	if out.Results[0] == nil || out.Results[1] == nil {
		t.Fatal("singleton configs lost")
	}
	if d["groups_formed"] != 0 || d["points_fanned"] != 0 {
		t.Errorf("singletons were fanned: %v", d)
	}
}

// TestFanoutResumePartialGroupBypass checks a group partially satisfied
// by the result store — a resumed campaign — is not fanned: the
// remaining members run on the per-run path, and the campaign's results
// still match an uninterrupted sequential one.
func TestFanoutResumePartialGroupBypass(t *testing.T) {
	cfgs := []sim.Config{
		tinyCfg("453.povray", 0.05),
		tinyCfg("453.povray", 0.3),
		tinyCfg("453.povray", 0.7),
	}
	seq, err := New(Options{Workers: 1}).RunAll(context.Background(), cfgs)
	if err != nil || len(seq.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, seq.Failures)
	}

	st := openStore(t, t.TempDir(), "sim-test")
	head, err := New(Options{Workers: 1, Store: st}).RunAll(context.Background(), cfgs[:1])
	if err != nil || len(head.Failures) != 0 {
		t.Fatalf("head campaign: err=%v failures=%v", err, head.Failures)
	}

	var out *Outcome
	d := fanoutDelta(func() {
		out, err = New(Options{Workers: 1, Fanout: true, Store: st}).RunAll(context.Background(), cfgs)
	})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("resumed campaign: err=%v failures=%v", err, out.Failures)
	}
	if out.FromStore != 1 || out.Ran != 2 {
		t.Fatalf("FromStore = %d, Ran = %d, want 1 and 2", out.FromStore, out.Ran)
	}
	if d["groups_formed"] != 0 {
		t.Errorf("partial resume group was fanned: %v", d)
	}
	for i := range cfgs {
		if fingerprint(out.Results[i]) != fingerprint(seq.Results[i]) {
			t.Errorf("config %d: resumed result differs from reference", i)
		}
	}
}

// TestChaosFanoutWorkerPanic arms the worker panic site against a live
// fan-out group — all digest followers, and a mix of followers and a
// per-run 2nd-Trace point: exactly one point dies inside the group while
// its siblings complete, the dead point falls back to the per-run pool,
// and — with the fault armed for that attempt too — surfaces as a typed
// ErrPanic RunError rather than poisoning the group.
func TestChaosFanoutWorkerPanic(t *testing.T) {
	adv := tinyCfg("453.povray", 0)
	adv.Mode, adv.Adversary = sim.SecondTrace, "470.lbm"
	cases := []struct {
		name string
		cfgs []sim.Config
	}{
		{"digest", []sim.Config{
			tinyCfg("453.povray", 0.05),
			tinyCfg("453.povray", 0.3),
			tinyCfg("453.povray", 0.7),
		}},
		{"mixed", []sim.Config{
			tinyCfg("453.povray", 0.05),
			tinyCfg("453.povray", 0.3),
			adv,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := tc.cfgs
			ref, err := New(Options{Workers: 1}).RunAll(context.Background(), cfgs)
			if err != nil || len(ref.Failures) != 0 {
				t.Fatalf("reference campaign: err=%v failures=%v", err, ref.Failures)
			}

			// The three in-group points are hits 1-3 of the panic site and
			// the lone fallback's sequential attempt is hit 4, so after=2
			// kills exactly one point inside the group (hit 3) and then its
			// per-run retry (hit 4) — the typed failure must survive both
			// layers.
			if err := fault.Apply("seed=1;worker.panic:every=1,after=2,limit=2"); err != nil {
				t.Fatal(err)
			}
			defer fault.Disable()
			var out *Outcome
			d := fanoutDelta(func() {
				out, err = New(Options{Workers: 1, Fanout: true}).RunAll(context.Background(), cfgs)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Failures) != 1 {
				t.Fatalf("failures = %v, want exactly one (the panicking point)", out.Failures)
			}
			f := out.Failures[0]
			if !errors.Is(f.Err, sim.ErrPanic) {
				t.Fatalf("failure is untyped: %v", f.Err)
			}
			for i := range cfgs {
				if i == f.Index {
					if out.Results[i] != nil {
						t.Errorf("panicked point %d also has a result", i)
					}
					continue
				}
				if out.Results[i] == nil || fingerprint(out.Results[i]) != fingerprint(ref.Results[i]) {
					t.Errorf("sibling %d lost or diverged after an in-group panic", i)
				}
			}
			if d["fallback_points"] != 1 {
				t.Errorf("fallback_points moved by %d, want 1", d["fallback_points"])
			}
			if d["group_aborts"] != 0 {
				t.Errorf("group_aborts moved by %d, want 0 (siblings completed)", d["group_aborts"])
			}
		})
	}
}

// TestChaosFanoutWorkerHang wedges one follower before it reaches the
// barrier: the whole group stalls, the deadline aborts it, the stall
// watchdog abandons the wedged point, and every point retries cleanly on
// the per-run pool (where the consumed fault no longer fires).
//
// Its configs are smaller than tinyCfg: after the group's deadline each
// point reruns alone under the same 200 ms deadline, and a race-enabled
// 16k-instruction povray run takes about 30 ms on a 2-vCPU host, where
// tinyCfg's 70k instructions took 100-190 ms and made the test flaky.
func TestChaosFanoutWorkerHang(t *testing.T) {
	hangCfg := func(p float64) sim.Config {
		cfg := tinyCfg("453.povray", p)
		cfg.WarmupInstrs, cfg.ROIInstrs, cfg.SampleEvery = 4_000, 12_000, 3_000
		return cfg
	}
	cfgs := []sim.Config{hangCfg(0.05), hangCfg(0.3), hangCfg(0.7)}
	ref, err := New(Options{Workers: 1}).RunAll(context.Background(), cfgs)
	if err != nil || len(ref.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, ref.Failures)
	}

	if err := fault.Apply("seed=1;worker.hang:every=1,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	var out *Outcome
	d := fanoutDelta(func() {
		out, err = New(Options{
			Workers: 1, Fanout: true,
			Timeout: 200 * time.Millisecond, StallGrace: 200 * time.Millisecond,
		}).RunAll(context.Background(), cfgs)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Failures) != 0 {
		t.Fatalf("failures after clean fallback: %v", out.Failures)
	}
	for i := range cfgs {
		if out.Results[i] == nil || fingerprint(out.Results[i]) != fingerprint(ref.Results[i]) {
			t.Errorf("config %d lost or diverged after a group hang", i)
		}
	}
	if d["group_aborts"] != 1 {
		t.Errorf("group_aborts moved by %d, want 1", d["group_aborts"])
	}
	if d["fallback_points"] != int64(len(cfgs)) {
		t.Errorf("fallback_points moved by %d, want %d", d["fallback_points"], len(cfgs))
	}
}

// TestFanoutFallbackReentersBackoffLadder is the regression test for
// the fallback retry policy: a point that fails inside a fan-out group
// must NOT retry immediately on the per-run path — it re-enters the
// normal backoff ladder at rung 1 (measured on the fake clock), keeps
// its original seed for the fallback attempt, and still produces a
// result byte-identical to a sequential campaign.
func TestFanoutFallbackReentersBackoffLadder(t *testing.T) {
	cfgs := []sim.Config{
		tinyCfg("453.povray", 0.05),
		tinyCfg("453.povray", 0.3),
		tinyCfg("453.povray", 0.7),
	}
	ref, err := New(Options{Workers: 1}).RunAll(context.Background(), cfgs)
	if err != nil || len(ref.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, ref.Failures)
	}

	// The three followers are hits 1-3 of the panic site; after=2 with
	// limit=1 kills exactly one point inside the group and nothing
	// afterwards, so the fallback's own attempt succeeds.
	if err := fault.Apply("seed=1;worker.panic:every=1,after=2,limit=1"); err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()

	base := 50 * time.Millisecond
	var slept []time.Duration
	o := New(Options{Workers: 1, Fanout: true, Retries: 2, Backoff: base})
	o.sleep = func(ctx context.Context, d time.Duration) { slept = append(slept, d) }
	out, err := o.RunAll(context.Background(), cfgs)
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("fan-out campaign: err=%v failures=%v", err, out.Failures)
	}
	for i := range cfgs {
		if out.Results[i] == nil || fingerprint(out.Results[i]) != fingerprint(ref.Results[i]) {
			t.Errorf("config %d lost or diverged through the fallback path", i)
		}
	}
	if len(slept) != 1 {
		t.Fatalf("fallback slept %d times (%v), want exactly 1 backoff pause", len(slept), slept)
	}
	if want := backoffDelay(base, 1, cfgs[0].Seed); slept[0] != want {
		t.Errorf("fallback slept %v, want the ladder's rung-1 delay %v", slept[0], want)
	}
}

// TestFanoutMaxGroupSplit checks FanMaxGroup (the service's
// load-shedding knob) splits an oversized group into capped chunks and
// leaves a leftover singleton to the per-run path, without changing any
// result.
func TestFanoutMaxGroupSplit(t *testing.T) {
	var cfgs []sim.Config
	for _, p := range []float64{0.05, 0.1, 0.3, 0.5, 0.7} {
		cfgs = append(cfgs, tinyCfg("453.povray", p))
	}
	ref, err := New(Options{Workers: 1}).RunAll(context.Background(), cfgs)
	if err != nil || len(ref.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, ref.Failures)
	}
	var out *Outcome
	d := fanoutDelta(func() {
		out, err = New(Options{Workers: 1, Fanout: true, FanMaxGroup: 2}).RunAll(context.Background(), cfgs)
	})
	if err != nil || len(out.Failures) != 0 {
		t.Fatalf("capped campaign: err=%v failures=%v", err, out.Failures)
	}
	if d["groups_formed"] != 2 || d["points_fanned"] != 4 {
		t.Errorf("groups=%d points=%d, want 2 capped groups over 4 points (singleton per-run)",
			d["groups_formed"], d["points_fanned"])
	}
	for i := range cfgs {
		if out.Results[i] == nil || fingerprint(out.Results[i]) != fingerprint(ref.Results[i]) {
			t.Errorf("config %d diverged under a capped fan group", i)
		}
	}
}
