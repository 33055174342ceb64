// Package sim drives complete simulations in the paper's three contexts
// of contention: Isolation (one core, no injection), PInTE (one core with
// the injection engine on the LLC), and SecondTrace (two cores sharing
// the LLC and DRAM — the multi-programmed baseline). It handles warm-up,
// the region of interest, and periodic run-time sampling. Batches of
// runs go through internal/runner.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/phase"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Mode is the source of contention (Table I's three rows).
type Mode int

const (
	// Isolation runs the workload alone.
	Isolation Mode = iota
	// PInTE runs the workload alone with the injection engine attached
	// to the LLC.
	PInTE
	// SecondTrace co-runs an adversary workload on a second core.
	SecondTrace
)

// String returns the mode name used in reports.
func (m Mode) String() string {
	switch m {
	case Isolation:
		return "isolation"
	case PInTE:
		return "pinte"
	case SecondTrace:
		return "2nd-trace"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Config describes one simulation.
type Config struct {
	Mode Mode

	// Workload names a preset (internal/trace); WorkloadSpec overrides
	// it with an ad-hoc spec when non-nil.
	Workload     string
	WorkloadSpec *trace.Spec

	// Adversary (SecondTrace only) names the co-runner preset;
	// AdversarySpec overrides it. Adversaries adds further co-runners
	// on additional cores — the paper's "more than two workloads ...
	// run concurrently" scenario; each gets a disjoint address space.
	Adversary     string
	AdversarySpec *trace.Spec
	Adversaries   []string

	// PInduce is the injection probability (PInTE only).
	PInduce float64

	// Hier configures the cache hierarchy; the zero value selects the
	// paper's default machine. Cores is set by the driver.
	Hier cache.HierarchyConfig
	// DRAM configures memory; nil selects dram.Default().
	DRAM *dram.Config
	// CPU configures core timing; MLP defaults to the workload spec's
	// hint when zero.
	CPU cpu.Config
	// Branch names the branch predictor; "" means hashed-perceptron.
	Branch string

	// LLCWayAllocation, when non-zero, restricts every core's LLC
	// fills to the first N ways (an Intel RDT-style capacity cap, as
	// in the paper's §V-D setup: 10MB of the Xeon's 11MB LLC for the
	// measured workloads). Remaining ways stay reserved.
	LLCWayAllocation int

	// Partitioning selects a dynamic LLC partitioning controller
	// ("ucp" or "theft", see internal/partition); "" disables it.
	// Mutually exclusive with LLCWayAllocation.
	Partitioning string
	// ReallocEvery is the partitioning epoch in primary-core
	// instructions; 0 means 50_000.
	ReallocEvery uint64

	// WarmupInstrs runs before statistics are reset; ROIInstrs is the
	// measured region; SampleEvery is the run-time sampling interval
	// (all counted in primary-core instructions). Zero values select
	// 200k / 1M / 50k — the paper's 500M / 500M / 10M at 1:500 scale.
	WarmupInstrs uint64
	ROIInstrs    uint64
	SampleEvery  uint64

	// TelemetryEvery, in primary-core instructions, collects the
	// interval time-series (internal/telemetry: IPC, per-level MPKI,
	// LLC occupancy, PInTE engine activity) every N instructions over
	// the region of interest; 0 disables collection. Collection is
	// observation-only — enabling it never changes simulation results —
	// and the field is omitted from JSON when zero so journal hashes
	// and golden outputs of telemetry-free configs are unaffected.
	TelemetryEvery uint64 `json:",omitempty"`

	// Streams, when non-nil, supplies the primary core's instruction
	// stream — typically a campaign-wide record/replay cache
	// (internal/replay) that records each workload stream once and
	// replays it read-only across all runs sharing it (every P_Induce
	// point of a sweep, every rerun and pairing). SecondTrace adversary
	// cores always regenerate: their consumed length is IPC-dependent
	// and unbounded, so caching them costs more than it returns. nil
	// regenerates every stream per run. Replayed streams are record-
	// for-record identical to generated ones, so results are byte-
	// identical either way; the field is runtime plumbing, not
	// configuration, and is excluded from JSON so journal config keys,
	// memo keys and golden outputs are unaffected.
	Streams trace.SourceProvider `json:"-"`

	// Sample, when non-nil, switches the run to phase-sampled execution:
	// only the plan's representative windows are simulated in detail
	// (each with its own short warmup) and full-ROI metrics are
	// extrapolated as the cluster-weighted sum, with error bounds
	// reported in Result.Sampled. Only SampleEligible configs may carry
	// a plan. Like Streams, the field is runtime plumbing stamped by the
	// orchestrator, not configuration: it is excluded from JSON so
	// journal config keys, memo keys and golden outputs are unaffected.
	Sample *phase.Plan `json:"-"`

	// Seed drives every random stream in the run (generators, engine,
	// randomised policies). Two runs with equal Config produce
	// identical results.
	Seed uint64
	// EngineSeed, when non-zero, seeds only the PInTE engine's random
	// stream, leaving the workload identical — the Fig 3 stability
	// study's rerun knob. Zero derives the engine seed from Seed.
	EngineSeed uint64

	// Extensions beyond the paper's core mechanism (§IV-E2b sketches
	// both; disabled when zero).

	// IndependentPeriod, in primary-core instructions, runs the PInTE
	// flow on a schedule decoupled from LLC accesses (PInTE mode
	// only); it addresses the core-bound workloads whose LLC accesses
	// are too rare to trigger access-coupled injection.
	IndependentPeriod uint64
	// DRAMContentionProb and DRAMContentionPenalty inject extra memory
	// latency (any mode), standing in for the off-chip contention a
	// real co-runner exerts beyond the LLC.
	DRAMContentionProb    float64
	DRAMContentionPenalty uint64
}

func (c Config) withDefaults() Config {
	if c.WarmupInstrs == 0 {
		c.WarmupInstrs = 200_000
	}
	if c.ROIInstrs == 0 {
		c.ROIInstrs = 1_000_000
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 50_000
	}
	if c.Branch == "" {
		c.Branch = "hashed-perceptron"
	}
	// Merge unset hierarchy levels with the paper's default machine:
	// any level with a zero size takes the default geometry, and a
	// policy override on a defaulted level is preserved.
	hc := cache.DefaultConfig(1)
	hc.Inclusion = c.Hier.Inclusion
	hc.Prefetch = c.Hier.Prefetch
	hc.Seed = c.Hier.Seed
	hc.L1I = mergeLevel(hc.L1I, c.Hier.L1I)
	hc.L1D = mergeLevel(hc.L1D, c.Hier.L1D)
	hc.L2 = mergeLevel(hc.L2, c.Hier.L2)
	hc.LLC = mergeLevel(hc.LLC, c.Hier.LLC)
	c.Hier = hc
	return c
}

// mergeLevel resolves one hierarchy level: src when it sets a size,
// otherwise the default def with src's policy override. It works on
// values so withDefaults stays off the heap.
func mergeLevel(def, src cache.LevelConfig) cache.LevelConfig {
	if src.SizeBytes != 0 {
		return src
	}
	if src.Policy != "" {
		def.Policy = src.Policy
	}
	return def
}

// Normalized returns the configuration with every defaulted field
// resolved. Two configs with equal Normalized values produce identical
// results, so it is the canonical form for memo keys and journal
// hashes.
func (c Config) Normalized() Config { return c.withDefaults() }

// Validate checks the configuration for contradictions the simulator
// would otherwise hit mid-run (or silently mis-model). Defaults are
// applied first, so a zero value passes. Every rejection wraps
// ErrBadConfig.
func (c Config) Validate() error {
	return c.withDefaults().validateDefaulted()
}

// validateDefaulted assumes withDefaults has run.
func (c Config) validateDefaulted() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrBadConfig, fmt.Sprintf(format, args...))
	}
	if c.Mode < Isolation || c.Mode > SecondTrace {
		return bad("unknown mode %d", int(c.Mode))
	}
	if math.IsNaN(c.PInduce) || c.PInduce < 0 || c.PInduce > 1 {
		return bad("PInduce %v outside [0,1]", c.PInduce)
	}
	if math.IsNaN(c.DRAMContentionProb) || c.DRAMContentionProb < 0 || c.DRAMContentionProb > 1 {
		return bad("DRAMContentionProb %v outside [0,1]", c.DRAMContentionProb)
	}
	if c.LLCWayAllocation < 0 {
		return bad("negative LLCWayAllocation %d", c.LLCWayAllocation)
	}
	if ways := c.Hier.LLC.Ways; ways > 0 && c.LLCWayAllocation > ways {
		return bad("LLC way allocation %d exceeds %d ways", c.LLCWayAllocation, ways)
	}
	if c.Partitioning != "" && c.LLCWayAllocation > 0 {
		return bad("Partitioning and LLCWayAllocation are mutually exclusive")
	}
	if c.Mode == SecondTrace && c.Adversary == "" && c.AdversarySpec == nil {
		return bad("SecondTrace mode requires an adversary")
	}
	if c.Mode != SecondTrace && (c.Adversary != "" || len(c.Adversaries) > 0) {
		return bad("adversaries set outside SecondTrace mode")
	}
	return nil
}

// Sample is one run-time measurement interval for the primary core (the
// paper samples every 10M instructions).
type Sample struct {
	Instrs uint64 // cumulative primary-core instructions at interval end
	IPC    float64
	// MissRate is the primary core's LLC miss ratio over the interval.
	MissRate float64
	AMAT     float64
	// InterferenceRate is thefts experienced per LLC access over the
	// interval; TheftRate is thefts caused (mock thefts under PInTE).
	InterferenceRate float64
	TheftRate        float64
	// OccupancyFrac is the fraction of LLC blocks the primary core
	// holds at the interval's end.
	OccupancyFrac float64
}

// Result is the outcome of one simulation.
type Result struct {
	Config Config

	// Aggregates over the region of interest, primary core.
	Instrs         uint64
	Cycles         uint64
	IPC            float64
	MissRate       float64 // LLC
	AMAT           float64
	ContentionRate float64 // thefts experienced per LLC access
	BranchAccuracy float64

	// L2MPKI and LLCMPKI are misses per kilo-instruction (Fig 6b).
	L2MPKI  float64
	LLCMPKI float64

	// LLCWritebackFillShare is the fraction of LLC fills that arrived
	// via writeback (the Fig 6b "L2 spill" signature).
	LLCWritebackFillShare float64

	// ReuseHist is the primary core's LLC hit-position histogram.
	ReuseHist []uint64

	// OccupancyFrac is the mean sampled LLC occupancy share.
	OccupancyFrac float64

	Samples []Sample

	// Telemetry carries the interval time-series when
	// Config.TelemetryEvery is non-zero; omitted from JSON otherwise.
	Telemetry *telemetry.Series `json:",omitempty"`

	// Sampled carries the phase-sampling budget and error bounds when
	// the run executed under a Config.Sample plan; nil (and omitted
	// from JSON) for full-ROI runs.
	Sampled *SampleStats `json:",omitempty"`

	// Engine carries PInTE engine statistics (PInTE mode only).
	Engine *pinte.Stats
	// DRAMInjection carries memory-side injection statistics when the
	// DRAM contention extension is enabled.
	DRAMInjection *pinte.DRAMContentionStats
	// IndependentTicks counts access-independent injection rounds when
	// that extension is enabled.
	IndependentTicks uint64
	// Partition holds the final per-core LLC way masks when a
	// partitioning controller ran.
	Partition []uint64

	// Prefetch effectiveness (Fig 11 row 3 inputs).
	PrefetchIssued   uint64
	PrefetchUseful   uint64
	PrefetchFromDRAM uint64
	// L1DMissRate / L2MissRate for case-study secondary metrics.
	L1DMissRate float64
	L2MissRate  float64

	WallTime time.Duration
}

// release recycles a run component's arrays when it has any (see
// internal/recycle).
func release(x any) {
	if r, ok := x.(interface{ Release() }); ok {
		r.Release()
	}
}

// resultConfig is cfg as a Result records it: without the run-time
// wiring (Streams, Sample), so a kept result never pins its campaign's
// replay cache or sampling plan. Both fields are excluded from JSON, so
// goldens and journal keys are unaffected.
func resultConfig(cfg Config) Config {
	cfg.Streams, cfg.Sample = nil, nil
	return cfg
}

// WeightedIPC returns r.IPC normalised by an isolation IPC.
func (r *Result) WeightedIPC(isolationIPC float64) float64 {
	if isolationIPC == 0 {
		return 0
	}
	return r.IPC / isolationIPC
}

// specFor resolves a workload selection.
func specFor(name string, override *trace.Spec) (trace.Spec, error) {
	if override != nil {
		return *override, nil
	}
	return trace.SpecFor(name)
}

// adversaryBase offsets the second core's address space so co-runners
// never share data blocks (distinct physical footprints).
const adversaryBase = 1 << 42

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// ctxError maps a done context onto the error taxonomy: a per-run
// deadline becomes ErrTimeout, everything else ErrCanceled.
func ctxError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ErrCanceled
}

// RunContext executes one simulation under ctx: a context deadline
// bounds the run's wall-clock time (ErrTimeout) and cancellation stops
// it between scheduling quanta (ErrCanceled). The configuration is
// validated up front (ErrBadConfig).
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validateDefaulted(); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctxError(ctx)
	}
	if cfg.Sample != nil {
		if !sampleEligible(cfg) {
			return nil, fmt.Errorf("%w: config is not sample-eligible but carries a sampling plan", ErrBadConfig)
		}
		return runSampled(ctx, cfg)
	}
	start := time.Now()

	m, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	defer m.release()
	core0, err := m.primaryCore()
	if err != nil {
		return nil, err
	}
	loop := newSimLoop(ctx, core0, m.tick)
	if cfg.Mode == SecondTrace {
		for i, name := range append([]string{cfg.Adversary}, cfg.Adversaries...) {
			var override *trace.Spec
			if i == 0 {
				override = cfg.AdversarySpec
			}
			aspec, err := specFor(name, override)
			if err != nil {
				return nil, err
			}
			// Adversary streams always come from a fresh generator,
			// never the replay cache: an adversary core consumes
			// records until the primary finishes, so its stream length
			// scales with the slowest pairing's cycle count rather
			// than the configured ROI — recording such unbounded
			// streams costs more arena memory and pack work than
			// their replay returns.
			gen, err := trace.Generate{}.Source(aspec, cfg.Seed+2+uint64(i),
				adversaryBase*uint64(i+1))
			if err != nil {
				return nil, err
			}
			advCPU := cfg.CPU
			advCPU.MLP = aspec.MLP
			adv, err := m.addCore(1+i, advCPU, gen)
			if err != nil {
				return nil, err
			}
			loop.sys.Cores = append(loop.sys.Cores, adv)
		}
	}

	if err := loop.runTo(cfg.WarmupInstrs); err != nil {
		return nil, err
	}
	m.resetStats()

	// Region of interest with periodic sampling. The telemetry
	// collector, when enabled, rides the same loop: its interval buffer
	// is preallocated here so steady-state collection stays off the
	// heap, and it only observes counters, never the machine state.
	res := &Result{Config: resultConfig(cfg)}
	begin := m.snap()
	smp := newSampler(m)
	var col *telemetry.Collector
	if cfg.TelemetryEvery > 0 {
		col = telemetry.NewCollector(cfg.TelemetryEvery, cfg.ROIInstrs,
			m.hier.LLC().CapacityBlocks(), begin.telemetry())
	}
	loop.each = func() {
		m.tick()
		smp.maybeSample(&res.Samples)
		if col != nil && core0.Instrs >= col.NextAt() {
			col.Record(m.snap().telemetry())
		}
	}
	if err := loop.runTo(begin.instrs + cfg.ROIInstrs); err != nil {
		return nil, err
	}
	smp.maybeSample(&res.Samples)
	if col != nil {
		// Flush the partial tail so interval sums equal the ROI totals
		// (the P_Induce audit cross-checks them against engine stats).
		col.Tail(m.snap().telemetry())
		res.Telemetry = col.Series()
	}
	m.finish(res, begin)
	res.WallTime = time.Since(start)
	return res, nil
}
