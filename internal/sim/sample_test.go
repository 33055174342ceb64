package sim

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/phase"
	"repro/internal/replay"
)

// fullWindowPlan is a sampling plan whose single window spans the
// entire ROI with the config's own warmup: the sampled executor then
// simulates every instruction a full run would.
func fullWindowPlan(cfg Config) *phase.Plan {
	cfg = cfg.Normalized()
	return &phase.Plan{
		Every:        cfg.ROIInstrs,
		Phases:       1,
		Intervals:    1,
		WarmupInstrs: cfg.WarmupInstrs,
		Windows: []phase.Window{{
			Start: 0, End: cfg.ROIInstrs, Phase: 0, CoverInstrs: cfg.ROIInstrs,
		}},
	}
}

// TestSampledFullWindowMatchesRun is the sampled executor's anchor: a
// plan covering the whole ROI must reproduce the full run exactly —
// same stream position, same quantum stepping, same counters — proving
// the window machinery adds no distortion of its own. Budgets are
// multiples of the scheduling quantum so neither run overshoots a
// boundary.
func TestSampledFullWindowMatchesRun(t *testing.T) {
	for _, mode := range []Mode{Isolation, PInTE} {
		cfg := Config{
			Mode: mode, Workload: "403.gcc", PInduce: 0.1,
			WarmupInstrs: 64_000, ROIInstrs: 256_000, Seed: 5,
		}
		if mode == Isolation {
			cfg.PInduce = 0
		}
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		scfg.Sample = fullWindowPlan(cfg)
		sampled, err := Run(scfg)
		if err != nil {
			t.Fatal(err)
		}
		if sampled.Sampled == nil {
			t.Fatal("sampled run missing SampleStats")
		}
		if sampled.Instrs != full.Instrs || sampled.Cycles != full.Cycles {
			t.Fatalf("%v: instrs/cycles %d/%d, full run %d/%d",
				mode, sampled.Instrs, sampled.Cycles, full.Instrs, full.Cycles)
		}
		type pair struct {
			name      string
			got, want float64
		}
		pairs := []pair{
			{"IPC", sampled.IPC, full.IPC},
			{"MissRate", sampled.MissRate, full.MissRate},
			{"AMAT", sampled.AMAT, full.AMAT},
			{"ContentionRate", sampled.ContentionRate, full.ContentionRate},
			{"BranchAccuracy", sampled.BranchAccuracy, full.BranchAccuracy},
			{"L2MPKI", sampled.L2MPKI, full.L2MPKI},
			{"LLCMPKI", sampled.LLCMPKI, full.LLCMPKI},
			{"L1DMissRate", sampled.L1DMissRate, full.L1DMissRate},
			{"L2MissRate", sampled.L2MissRate, full.L2MissRate},
			{"WritebackShare", sampled.LLCWritebackFillShare, full.LLCWritebackFillShare},
		}
		for _, p := range pairs {
			if p.got != p.want {
				t.Errorf("%v %s = %v, full run %v", mode, p.name, p.got, p.want)
			}
		}
		if mode == PInTE {
			if sampled.Engine == nil || full.Engine == nil {
				t.Fatalf("%v: missing engine stats", mode)
			}
			if sampled.Engine.Accesses != full.Engine.Accesses ||
				sampled.Engine.Triggers != full.Engine.Triggers {
				t.Errorf("%v engine = %d/%d, full %d/%d", mode,
					sampled.Engine.Accesses, sampled.Engine.Triggers,
					full.Engine.Accesses, full.Engine.Triggers)
			}
		}
		if sampled.Sampled.InstrsSkipped != 0 {
			t.Errorf("%v: full-window plan skipped %d instrs", mode, sampled.Sampled.InstrsSkipped)
		}
	}
}

// profileAndPlan runs a telemetry-only profile of cfg and clusters it.
func profileAndPlan(t *testing.T, cfg Config, every uint64) *phase.Plan {
	t.Helper()
	pcfg := cfg.Normalized()
	pcfg.Mode = Isolation
	pcfg.PInduce = 0
	pcfg.TelemetryEvery = every
	res, err := Run(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := phase.Analyze(res.Telemetry, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSampledPhasedWorkloadAccuracy is the in-package accuracy check
// behind the make sample-check gate: on a genuinely phased preset
// (403.gcc alternates two region-weight mixtures every 200k instrs), a
// clustered plan must cut the detailed-instruction budget at least 5×
// while keeping IPC and LLC MPKI within the stated bounds of the
// full-ROI run.
func TestSampledPhasedWorkloadAccuracy(t *testing.T) {
	cache := replay.NewCache(0)
	cfg := Config{
		Mode: PInTE, Workload: "403.gcc", PInduce: 0.2,
		WarmupInstrs: 128_000, ROIInstrs: 1_024_000, Seed: 9,
		Streams: cache,
	}
	plan := profileAndPlan(t, cfg, 32_000)
	if plan.Phases < 2 {
		t.Fatalf("phased preset clustered into %d phase(s)", plan.Phases)
	}

	full, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.Sample = plan
	sampled, err := Run(scfg)
	if err != nil {
		t.Fatal(err)
	}

	st := sampled.Sampled
	budget := cfg.WarmupInstrs + cfg.ROIInstrs
	if st.InstrsSimulated*5 > budget {
		t.Errorf("sampled run simulated %d of %d instrs — less than 5x savings", st.InstrsSimulated, budget)
	}
	// The gate bounds: the plan's self-consistency bound plus a fixed
	// allowance for cross-run state approximation (window-local warmup
	// versus fully warm caches).
	ipcErr := math.Abs(sampled.IPC-full.IPC) / full.IPC
	if limit := plan.Bounds.IPCRel + 0.10; ipcErr > limit {
		t.Errorf("IPC error %.4f exceeds %.4f (sampled %.4f vs full %.4f)",
			ipcErr, limit, sampled.IPC, full.IPC)
	}
	mpkiErr := math.Abs(sampled.LLCMPKI-full.LLCMPKI) / full.LLCMPKI
	if limit := plan.Bounds.LLCMPKIRel + 0.20; mpkiErr > limit {
		t.Errorf("LLC MPKI error %.4f exceeds %.4f (sampled %.4f vs full %.4f)",
			mpkiErr, limit, sampled.LLCMPKI, full.LLCMPKI)
	}
	trigErr := math.Abs(sampled.Engine.TriggerRate() - full.Engine.TriggerRate())
	if limit := st.TriggerRateBound + 0.02; trigErr > limit {
		t.Errorf("trigger-rate error %.5f exceeds %.5f", trigErr, limit)
	}
}

func TestSampleEligible(t *testing.T) {
	ok := Config{Mode: PInTE, Workload: "403.gcc", PInduce: 0.1}
	if !SampleEligible(ok) {
		t.Fatal("plain PInTE config not eligible")
	}
	cases := map[string]Config{
		"second-trace": {Mode: SecondTrace, Workload: "403.gcc", Adversary: "470.lbm"},
		"partitioning": {Mode: PInTE, Workload: "403.gcc", Partitioning: "ucp"},
		"way-alloc":    {Mode: PInTE, Workload: "403.gcc", LLCWayAllocation: 4},
		"indep-period": {Mode: PInTE, Workload: "403.gcc", IndependentPeriod: 1000},
		"dram-conten":  {Mode: PInTE, Workload: "403.gcc", DRAMContentionProb: 0.1},
		"telemetry-on": {Mode: PInTE, Workload: "403.gcc", TelemetryEvery: 1000},
	}
	for name, cfg := range cases {
		if SampleEligible(cfg) {
			t.Errorf("%s config wrongly eligible", name)
		}
		// The digest executor's rule is the sampling rule plus the front
		// capture's preconditions, so it refuses everything sampling does.
		if fanDigestEligible(cfg.Normalized()) {
			t.Errorf("%s config wrongly digest-eligible", name)
		}
	}
	if !fanDigestEligible(ok.Normalized()) {
		t.Error("plain PInTE config not digest-eligible")
	}
	inclusive, prefetching := ok, ok
	inclusive.Hier.Inclusion = cache.Inclusive
	prefetching.Hier.Prefetch = "0IN"
	for name, cfg := range map[string]Config{"inclusive": inclusive, "prefetching": prefetching} {
		if !SampleEligible(cfg) {
			t.Errorf("%s config not sample-eligible", name)
		}
		if fanDigestEligible(cfg.Normalized()) {
			t.Errorf("%s config wrongly digest-eligible: the front end is not point-invariant", name)
		}
	}
	bad := ok
	bad.Partitioning = "ucp"
	bad.Sample = &phase.Plan{Windows: []phase.Window{{End: 1, CoverInstrs: 1}}}
	if _, err := Run(bad); err == nil {
		t.Fatal("ineligible config with a plan must be rejected")
	}
}

// TestSampledGolden locks the sampled executor's output byte for byte,
// as TestGoldenDeterminism does for full runs: 403.gcc under a plan
// clustered from its own telemetry profile, in Isolation and in PInTE
// mode. Regenerate with
//
//	go test ./internal/sim -run TestSampledGolden -update
func TestSampledGolden(t *testing.T) {
	for _, mode := range []Mode{Isolation, PInTE} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := Config{
				Mode: mode, Workload: "403.gcc",
				WarmupInstrs: 64_000, ROIInstrs: 512_000, Seed: 9,
			}
			if mode == PInTE {
				cfg.PInduce = 0.2
			}
			plan := profileAndPlan(t, cfg, 16_000)
			if plan.Phases < 2 {
				t.Fatalf("phased preset clustered into %d phase(s)", plan.Phases)
			}
			scfg := cfg
			scfg.Sample = plan
			res, err := Run(scfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sampled == nil || res.Sampled.InstrsSkipped == 0 {
				t.Fatal("run did not execute under its sampling plan")
			}
			got := goldenBytes(t, res)
			path := filepath.Join("testdata", "golden_sampled_"+mode.String()+".json")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sampled result for %v diverged from golden %s", mode, path)
			}
		})
	}
}
