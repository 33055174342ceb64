package runner

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/phase"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/telemetry"
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
