package sim

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// tiny returns fast budgets for unit tests.
func tiny(cfg Config) Config {
	cfg.WarmupInstrs = 30_000
	cfg.ROIInstrs = 80_000
	cfg.SampleEvery = 10_000
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunIsolationBasics(t *testing.T) {
	r := run(t, tiny(Config{Workload: "450.soplex"}))
	if r.Instrs != 80_000 && r.Instrs < 80_000 {
		t.Fatalf("ROI instrs = %d, want ≥ 80000", r.Instrs)
	}
	if r.IPC <= 0 || r.IPC > 4 {
		t.Fatalf("IPC = %v out of plausible range", r.IPC)
	}
	if r.AMAT < 4 {
		t.Fatalf("AMAT = %v below L1 latency", r.AMAT)
	}
	if r.ContentionRate != 0 {
		t.Fatalf("isolation run has contention rate %v", r.ContentionRate)
	}
	if len(r.Samples) < 5 {
		t.Fatalf("got %d samples, want ≥5", len(r.Samples))
	}
	if r.Engine != nil {
		t.Fatal("isolation run carries engine stats")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3})
	a := run(t, cfg)
	b := run(t, cfg)
	if a.IPC != b.IPC || a.MissRate != b.MissRate || a.ContentionRate != b.ContentionRate {
		t.Fatalf("identical configs diverged: %+v vs %+v", a.IPC, b.IPC)
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("sample counts differ: %d vs %d", len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestRunPInTEInducesContention(t *testing.T) {
	iso := run(t, tiny(Config{Workload: "433.milc"}))
	con := run(t, tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.5}))
	if con.ContentionRate <= 0.05 {
		t.Fatalf("contention rate %v too low at PInduce 0.5", con.ContentionRate)
	}
	if con.IPC >= iso.IPC {
		t.Fatalf("PInTE contention did not hurt an LLC-bound workload: %v vs %v",
			con.IPC, iso.IPC)
	}
	if con.Engine == nil || con.Engine.Triggers == 0 {
		t.Fatal("engine stats missing or idle")
	}
	if con.MissRate <= iso.MissRate {
		t.Fatalf("miss rate did not rise under theft: %v vs %v", con.MissRate, iso.MissRate)
	}
}

func TestRunEngineSeedVariesOnlyInjection(t *testing.T) {
	base := tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3})
	a := run(t, base)
	base.EngineSeed = 999
	b := run(t, base)
	// Same workload stream: instruction counts identical; metrics move
	// only a little (Fig 3's stability claim).
	if a.Instrs != b.Instrs {
		t.Fatalf("instruction counts differ: %d vs %d", a.Instrs, b.Instrs)
	}
	if a.ContentionRate == 0 || b.ContentionRate == 0 {
		t.Fatal("no contention induced")
	}
	if rel := math.Abs(a.IPC-b.IPC) / a.IPC; rel > 0.10 {
		t.Fatalf("engine reseed moved IPC by %.1f%%, expected stability", 100*rel)
	}
}

func TestRunSecondTrace(t *testing.T) {
	iso := run(t, tiny(Config{Workload: "433.milc"}))
	st := run(t, tiny(Config{Workload: "433.milc", Mode: SecondTrace, Adversary: "470.lbm"}))
	if st.ContentionRate == 0 {
		t.Fatal("no thefts from an aggressive streaming adversary")
	}
	if st.IPC >= iso.IPC {
		t.Fatalf("co-run IPC %v not below isolation %v", st.IPC, iso.IPC)
	}
}

func TestRunSecondTraceRequiresAdversary(t *testing.T) {
	_, err := Run(tiny(Config{Workload: "433.milc", Mode: SecondTrace}))
	if err == nil {
		t.Fatal("missing adversary accepted")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := Run(tiny(Config{Workload: "999.bogus"})); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunCoreBoundInsensitive(t *testing.T) {
	iso := run(t, tiny(Config{Workload: "453.povray"}))
	con := run(t, tiny(Config{Workload: "453.povray", Mode: PInTE, PInduce: 0.9}))
	if rel := math.Abs(con.IPC-iso.IPC) / iso.IPC; rel > 0.05 {
		t.Fatalf("core-bound workload moved %.1f%% under PInTE", 100*rel)
	}
}

func TestRunSamplesConsistentWithAggregates(t *testing.T) {
	r := run(t, tiny(Config{Workload: "450.soplex", Mode: PInTE, PInduce: 0.3}))
	var ipcSum float64
	for _, s := range r.Samples {
		ipcSum += s.IPC
	}
	mean := ipcSum / float64(len(r.Samples))
	if math.Abs(mean-r.IPC)/r.IPC > 0.35 {
		t.Fatalf("mean sample IPC %v far from aggregate %v", mean, r.IPC)
	}
}

func TestRunOccupancyFracBounded(t *testing.T) {
	r := run(t, tiny(Config{Workload: "470.lbm"}))
	if r.OccupancyFrac < 0 || r.OccupancyFrac > 1 {
		t.Fatalf("occupancy fraction %v outside [0,1]", r.OccupancyFrac)
	}
	for _, s := range r.Samples {
		if s.OccupancyFrac < 0 || s.OccupancyFrac > 1 {
			t.Fatalf("sample occupancy %v outside [0,1]", s.OccupancyFrac)
		}
	}
}

func TestRunReuseHistogramPopulated(t *testing.T) {
	r := run(t, tiny(Config{Workload: "450.soplex"}))
	var total uint64
	for _, v := range r.ReuseHist {
		total += v
	}
	if total == 0 {
		t.Fatal("LLC-bound workload produced an empty reuse histogram")
	}
	if len(r.ReuseHist) != 16 {
		t.Fatalf("reuse histogram has %d buckets, want 16 (LLC ways)", len(r.ReuseHist))
	}
}

func TestValidateRejectsContradictions(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"pinduce above 1", func(c *Config) { c.Mode = PInTE; c.PInduce = 1.5 }},
		{"pinduce negative", func(c *Config) { c.Mode = PInTE; c.PInduce = -0.1 }},
		{"pinduce NaN", func(c *Config) { c.Mode = PInTE; c.PInduce = math.NaN() }},
		{"negative way allocation", func(c *Config) { c.LLCWayAllocation = -3 }},
		{"allocation beyond ways", func(c *Config) { c.LLCWayAllocation = 17 }},
		{"partitioning with allocation", func(c *Config) {
			c.Mode = SecondTrace
			c.Adversary = "470.lbm"
			c.Partitioning = "ucp"
			c.LLCWayAllocation = 4
		}},
		{"second-trace without adversary", func(c *Config) { c.Mode = SecondTrace }},
		{"adversary outside second-trace", func(c *Config) { c.Adversary = "470.lbm" }},
		{"dram contention prob above 1", func(c *Config) { c.DRAMContentionProb = 1.2 }},
		{"unknown mode", func(c *Config) { c.Mode = Mode(42) }},
	}
	for _, tc := range cases {
		cfg := Config{Workload: "433.milc"}
		tc.mut(&cfg)
		err := cfg.Validate()
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate = %v, want ErrBadConfig", tc.name, err)
		}
		if _, err := Run(tiny(cfg)); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Run = %v, want ErrBadConfig", tc.name, err)
		}
	}
	if err := (Config{Workload: "433.milc"}).Validate(); err != nil {
		t.Errorf("zero-value config rejected: %v", err)
	}
}

// normalizedSink keeps TestDefaultsAllocFree's Normalized calls live.
var normalizedSink Config

// TestDefaultsAllocFree guards a cost every campaign pays several times
// per config (ConfigKey, Validate, fan-out grouping, the run itself):
// resolving and validating a preset config's defaults stays off the
// heap, including a policy override on a defaulted level.
func TestDefaultsAllocFree(t *testing.T) {
	cfg := Config{Mode: PInTE, Workload: "433.milc", PInduce: 0.3, Seed: 1}
	cfg.Hier.LLC.Policy = "rrip"
	if n := testing.AllocsPerRun(100, func() { normalizedSink = cfg.Normalized() }); n != 0 {
		t.Errorf("Normalized allocates %.0f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %.0f times per call, want 0", n)
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, tiny(Config{Workload: "433.milc"}))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled context: err = %v, want ErrCanceled", err)
	}
}

func TestRunContextDeadline(t *testing.T) {
	cfg := tiny(Config{Workload: "433.milc"})
	cfg.ROIInstrs = 500_000_000
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline overrun: err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation not prompt: run stopped after %s", elapsed)
	}
}

func TestModeString(t *testing.T) {
	if Isolation.String() != "isolation" || PInTE.String() != "pinte" ||
		SecondTrace.String() != "2nd-trace" {
		t.Error("mode names changed; reports depend on them")
	}
}

func TestRunCustomMachineKnobs(t *testing.T) {
	cfg := tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3})
	cfg.Hier.LLC.Policy = "rrip"
	cfg.Hier.Prefetch = "NNI"
	cfg.Branch = "gshare"
	r := run(t, cfg)
	if r.PrefetchIssued == 0 {
		t.Fatal("NNI config issued no prefetches")
	}
	if r.ContentionRate == 0 {
		t.Fatal("PInTE inert under RRIP")
	}
}

func TestRunDRAMContentionExtension(t *testing.T) {
	base := tiny(Config{Workload: "429.mcf", Mode: PInTE, PInduce: 0.3})
	plain := run(t, base)
	base.DRAMContentionProb = 0.5
	base.DRAMContentionPenalty = 200
	ext := run(t, base)
	if ext.DRAMInjection == nil || ext.DRAMInjection.Injections == 0 {
		t.Fatal("DRAM injection stats missing")
	}
	if ext.IPC >= plain.IPC {
		t.Fatalf("DRAM contention did not slow a DRAM-bound workload: %v vs %v",
			ext.IPC, plain.IPC)
	}
	if ext.AMAT <= plain.AMAT {
		t.Fatalf("AMAT did not rise under DRAM contention: %v vs %v", ext.AMAT, plain.AMAT)
	}
}

func TestRunIndependentPeriodExtension(t *testing.T) {
	base := tiny(Config{Workload: "450.soplex", Mode: PInTE, PInduce: 0.8})
	base.IndependentPeriod = 32
	r := run(t, base)
	if r.IndependentTicks == 0 {
		t.Fatal("ticker never ran")
	}
	if r.ContentionRate == 0 {
		t.Fatal("scheduled injection induced no thefts on an LLC-resident workload")
	}
	if r.Engine == nil || r.Engine.Invalidations == 0 {
		t.Fatal("engine idle in independent mode")
	}
}

func TestRunExtensionsDisabledByDefault(t *testing.T) {
	r := run(t, tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.3}))
	if r.DRAMInjection != nil || r.IndependentTicks != 0 {
		t.Fatal("extensions active without being configured")
	}
}

func TestLLCCapacityEffect(t *testing.T) {
	// A 512KB random working set: resident in a 4MB LLC, thrashing in
	// a 256KB one. Uses an ad-hoc spec so the reuse distance fits the
	// unit-test instruction budget.
	spec := &trace.Spec{
		Name:    "capacity-probe",
		MemFrac: 0.4,
		Regions: []trace.Region{
			{SizeBytes: 512 << 10, Weight: 1, Pattern: trace.Random},
		},
		MLP: 2,
	}
	runWith := func(llcBytes int) *Result {
		cfg := Config{
			WorkloadSpec: spec,
			Workload:     "adhoc",
			WarmupInstrs: 150_000,
			ROIInstrs:    150_000,
			SampleEvery:  150_000,
			Seed:         1,
		}
		cfg.Hier.LLC = cache.LevelConfig{SizeBytes: llcBytes, Ways: 16, HitLatency: 30}
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	big := runWith(4 << 20)
	small := runWith(256 << 10)
	if small.MissRate <= big.MissRate {
		t.Fatalf("256KB LLC miss rate %v not above 4MB %v", small.MissRate, big.MissRate)
	}
	if small.IPC >= big.IPC {
		t.Fatalf("256KB LLC IPC %v not below 4MB %v", small.IPC, big.IPC)
	}
}

func TestWayAllocationCapsOccupancy(t *testing.T) {
	cfg := tiny(Config{Workload: "433.milc"})
	cfg.LLCWayAllocation = 4 // of 16 ways
	r := run(t, cfg)
	// The workload may hold at most 4/16 of the LLC.
	if r.OccupancyFrac > 0.26 {
		t.Fatalf("occupancy %v exceeds the 25%% way allocation", r.OccupancyFrac)
	}
	full := run(t, tiny(Config{Workload: "433.milc"}))
	if r.MissRate <= full.MissRate {
		t.Fatalf("capped allocation miss rate %v not above unrestricted %v",
			r.MissRate, full.MissRate)
	}
	bad := tiny(Config{Workload: "433.milc"})
	bad.LLCWayAllocation = 17
	if _, err := Run(bad); err == nil {
		t.Fatal("allocation beyond associativity accepted")
	}
}

func TestSecondTraceExtraAdversaries(t *testing.T) {
	one := run(t, tiny(Config{Workload: "433.milc", Mode: SecondTrace, Adversary: "470.lbm"}))
	three := run(t, tiny(Config{
		Workload:    "433.milc",
		Mode:        SecondTrace,
		Adversary:   "470.lbm",
		Adversaries: []string{"450.soplex", "619.lbm"},
	}))
	if three.ContentionRate <= one.ContentionRate {
		t.Fatalf("extra adversaries did not raise contention: %v vs %v",
			three.ContentionRate, one.ContentionRate)
	}
}

func TestPartitioningControllers(t *testing.T) {
	// A contention-sensitive workload co-running with a streamer: both
	// controllers must produce valid covering partitions, and the
	// victim's contention rate must drop versus the shared baseline
	// (partitioned fills cannot steal across cores).
	base := tiny(Config{Workload: "450.soplex", Mode: SecondTrace, Adversary: "470.lbm"})
	base.WarmupInstrs = 60_000
	base.ROIInstrs = 150_000
	shared := run(t, base)
	for _, ctrl := range []string{"ucp", "theft"} {
		cfg := base
		cfg.Partitioning = ctrl
		cfg.ReallocEvery = 20_000
		r := run(t, cfg)
		if len(r.Partition) != 2 {
			t.Fatalf("%s: partition masks missing: %v", ctrl, r.Partition)
		}
		var union uint64
		for core, m := range r.Partition {
			if m == 0 {
				t.Fatalf("%s: core %d has an empty mask", ctrl, core)
			}
			if union&m != 0 {
				t.Fatalf("%s: overlapping masks %v", ctrl, r.Partition)
			}
			union |= m
		}
		if r.ContentionRate >= shared.ContentionRate {
			t.Errorf("%s: victim contention %v not below shared %v",
				ctrl, r.ContentionRate, shared.ContentionRate)
		}
	}
}

func TestPartitioningExclusiveWithAllocation(t *testing.T) {
	cfg := tiny(Config{Workload: "433.milc", Mode: SecondTrace, Adversary: "470.lbm"})
	cfg.Partitioning = "ucp"
	cfg.LLCWayAllocation = 8
	if _, err := Run(cfg); err == nil {
		t.Fatal("partitioning combined with a static allocation accepted")
	}
}

func TestPartitioningUnknownController(t *testing.T) {
	cfg := tiny(Config{Workload: "433.milc", Mode: SecondTrace, Adversary: "470.lbm"})
	cfg.Partitioning = "static"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown controller accepted")
	}
}
