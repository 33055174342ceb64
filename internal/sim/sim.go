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

	"repro/internal/branch"
	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/partition"
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
	for _, lvl := range []struct {
		dst *cache.LevelConfig
		src cache.LevelConfig
	}{
		{&hc.L1I, c.Hier.L1I}, {&hc.L1D, c.Hier.L1D},
		{&hc.L2, c.Hier.L2}, {&hc.LLC, c.Hier.LLC},
	} {
		if lvl.src.SizeBytes != 0 {
			*lvl.dst = lvl.src
		} else if lvl.src.Policy != "" {
			lvl.dst.Policy = lvl.src.Policy
		}
	}
	c.Hier = hc
	return c
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
		if !SampleEligible(cfg) {
			return nil, fmt.Errorf("%w: config is not sample-eligible but carries a sampling plan", ErrBadConfig)
		}
		return runSampled(ctx, cfg)
	}
	start := time.Now()

	spec, err := specFor(cfg.Workload, cfg.WorkloadSpec)
	if err != nil {
		return nil, err
	}

	dcfg := dram.Default()
	if cfg.DRAM != nil {
		dcfg = *cfg.DRAM
	}
	mem, err := dram.New(dcfg)
	if err != nil {
		return nil, err
	}
	var hierMem cache.Memory = mem
	var dramInj *pinte.DRAMContention
	if cfg.DRAMContentionProb > 0 {
		dramInj, err = pinte.NewDRAMContention(pinte.DRAMContentionParams{
			Probability:   cfg.DRAMContentionProb,
			PenaltyCycles: cfg.DRAMContentionPenalty,
			Seed:          cfg.Seed + 11,
		}, mem)
		if err != nil {
			return nil, err
		}
		hierMem = dramInj
	}

	cores := 1
	if cfg.Mode == SecondTrace {
		cores = 2 + len(cfg.Adversaries)
	}
	hcfg := cfg.Hier
	hcfg.Cores = cores
	hcfg.Seed = cfg.Seed
	hier, err := cache.NewHierarchy(hcfg, hierMem)
	if err != nil {
		return nil, err
	}
	// The run owns its machine: it recycles the arrays when it returns,
	// however it returns — even long after a watchdog abandoned it.
	defer hier.Release()
	var ctrl partition.Controller
	if cfg.Partitioning != "" {
		ctrl, err = partition.New(cfg.Partitioning, cores)
		if err != nil {
			return nil, err
		}
		ctrl.Attach(hier.LLC())
	}
	if n := cfg.LLCWayAllocation; n > 0 {
		if n > hier.LLC().Ways() {
			return nil, fmt.Errorf("%w: LLC way allocation %d exceeds %d ways",
				ErrBadConfig, n, hier.LLC().Ways())
		}
		mask := uint64(1)<<uint(n) - 1
		for core := 0; core < cores; core++ {
			if err := hier.LLC().SetWayPartition(core, mask); err != nil {
				return nil, err
			}
		}
	}

	// streams resolves each core's instruction source: the replay cache
	// when one is attached, a fresh generator otherwise.
	streams := cfg.Streams
	if streams == nil {
		streams = trace.Generate{}
	}

	cpuCfg := cfg.CPU
	if cpuCfg.MLP == 0 {
		cpuCfg.MLP = spec.MLP
	}
	gen0, err := streams.Source(spec, cfg.Seed+1, 0)
	if err == nil {
		err = fault.Err(fault.SiteSimSource)
	}
	if err != nil {
		return nil, err
	}
	if fault.Enabled() {
		// Chaos mode interposes on the primary stream so trace.read
		// faults surface through the core's error path mid-run. Never
		// wrapped in production: Enabled() is false there, keeping the
		// hot call edge devirtualised.
		gen0 = &faultSource{src: gen0}
	}
	bp0, err := branch.New(cfg.Branch)
	if err != nil {
		return nil, err
	}
	defer release(bp0)
	core0 := cpu.NewCore(0, cpuCfg, gen0, hier, bp0)
	sys := cpu.NewSystem(core0)
	sys.RestartFinished = true

	var engine *pinte.Engine
	var ticker *pinte.Ticker
	switch cfg.Mode {
	case PInTE:
		eseed := cfg.EngineSeed
		if eseed == 0 {
			eseed = cfg.Seed + 7
		}
		engine, err = pinte.NewEngine(pinte.Params{PInduce: cfg.PInduce, Seed: eseed})
		if err != nil {
			return nil, err
		}
		if cfg.IndependentPeriod > 0 {
			// Extension: the flow runs on a schedule instead of on
			// LLC accesses.
			ticker, err = pinte.NewTicker(engine, hier.LLC())
			if err != nil {
				return nil, err
			}
		} else {
			hier.LLC().SetInjector(engine)
		}
		hier.LLC().SetWritebackSink(func(addr uint64) {
			mem.Access(core0.Cycles, addr, true)
		})
	case SecondTrace:
		names := append([]string{cfg.Adversary}, cfg.Adversaries...)
		for i, name := range names {
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
			bp, err := branch.New(cfg.Branch)
			if err != nil {
				return nil, err
			}
			defer release(bp)
			sys.Cores = append(sys.Cores, cpu.NewCore(1+i, advCPU, gen, hier, bp))
		}
	}

	// tick advances the access-independent injection schedule, when
	// enabled, to the primary core's current instruction count, and
	// runs partitioning epochs.
	nextTick := cfg.IndependentPeriod
	reallocEvery := cfg.ReallocEvery
	if reallocEvery == 0 {
		reallocEvery = 50_000
	}
	nextRealloc := reallocEvery
	tick := func() {
		if ticker != nil {
			for core0.Instrs >= nextTick {
				ticker.Tick()
				nextTick += cfg.IndependentPeriod
			}
		}
		if ctrl != nil {
			for core0.Instrs >= nextRealloc {
				for i, mask := range ctrl.Reallocate(hier.LLC()) {
					if err := hier.LLC().SetWayPartition(i, mask); err != nil {
						panic(err) // masks are constructed in-range
					}
				}
				nextRealloc += reallocEvery
			}
		}
	}

	// interrupted is polled between scheduling quanta; it records the
	// taxonomy error for a done context so the stop callback can halt
	// the system loop.
	var stopErr error
	interrupted := func() bool {
		select {
		case <-ctx.Done():
			stopErr = ctxError(ctx)
			return true
		default:
			return false
		}
	}

	// Warm-up: event counters reset; clocks keep running (they are
	// physical time shared with the DRAM bank timestamps).
	if cfg.WarmupInstrs > 0 {
		err = sys.Run(func(*cpu.Core) bool {
			tick()
			return interrupted() || core0.Instrs >= cfg.WarmupInstrs
		})
		if err != nil {
			return nil, err
		}
		if stopErr != nil {
			return nil, stopErr
		}
		hier.ResetStats()
		for _, c := range sys.Cores {
			c.ResetStats()
		}
		mem.Stats = dram.Stats{}
		if engine != nil {
			engine.ResetStats()
		}
		if dramInj != nil {
			dramInj.ResetStats()
		}
	}
	roiStartInstrs, roiStartCycles := core0.Instrs, core0.Cycles
	roiEnd := roiStartInstrs + cfg.ROIInstrs

	// Region of interest with periodic sampling. The telemetry
	// collector, when enabled, rides the same loop: its interval buffer
	// is preallocated here so steady-state collection stays off the
	// heap, and it only observes counters, never the machine state.
	res := &Result{Config: resultConfig(cfg)}
	sampler := newSampler(cfg, &core0.Instrs, &core0.Cycles, hier)
	var col *telemetry.Collector
	if cfg.TelemetryEvery > 0 {
		col = telemetry.NewCollector(cfg.TelemetryEvery, cfg.ROIInstrs,
			hier.LLC().CapacityBlocks(), telemetrySnap(core0, hier, engine))
	}
	err = sys.Run(func(*cpu.Core) bool {
		tick()
		sampler.maybeSample(&res.Samples)
		if col != nil && core0.Instrs >= col.NextAt() {
			col.Record(telemetrySnap(core0, hier, engine))
		}
		return interrupted() || core0.Instrs >= roiEnd
	})
	if err != nil {
		return nil, err
	}
	if stopErr != nil {
		return nil, stopErr
	}
	sampler.maybeSample(&res.Samples)
	if col != nil {
		// Flush the partial tail so interval sums equal the ROI totals
		// (the P_Induce audit cross-checks them against engine stats).
		col.Tail(telemetrySnap(core0, hier, engine))
		res.Telemetry = col.Series()
	}

	fillResult(res, core0, hier, engine, roiStartInstrs, roiStartCycles)
	if dramInj != nil {
		st := dramInj.Stats
		res.DRAMInjection = &st
	}
	if ticker != nil {
		res.IndependentTicks = ticker.Ticks
	}
	if ctrl != nil {
		for core := 0; core < hier.Cores(); core++ {
			res.Partition = append(res.Partition, hier.LLC().WayPartition(core))
		}
	}
	res.WallTime = time.Since(start)
	return res, nil
}

// telemetrySnap captures the cumulative counters the telemetry
// collector differentiates. It builds the snapshot on the caller's
// stack — no allocation on the sampling path.
func telemetrySnap(core *cpu.Core, hier *cache.Hierarchy, engine *pinte.Engine) telemetry.Counters {
	c := telemetry.Counters{
		Instrs:       core.Instrs,
		Cycles:       core.Cycles,
		L1DMisses:    hier.L1D(0).Stats.Misses[0],
		L2Misses:     hier.L2(0).Stats.Misses[0],
		LLCMisses:    hier.LLC().Stats.Misses[0],
		LLCOccupancy: hier.LLC().Stats.Occupancy[0],
	}
	if engine != nil {
		c.EngineAccesses = engine.Stats.Accesses
		c.EngineTriggers = engine.Stats.Triggers
		c.EngineEvictBudget = engine.Stats.EvictBudget
		c.EnginePromotions = engine.Stats.Promotions
		c.EngineInvalidations = engine.Stats.Invalidations
	}
	return c
}

func fillResult(res *Result, core0 *cpu.Core, hier *cache.Hierarchy, engine *pinte.Engine, instrs0, cycles0 uint64) {
	fillResultParts(res, core0.Instrs-instrs0, core0.Cycles-cycles0,
		&core0.Stats, hier, hier, engine)
}

// fillResultParts computes the ROI aggregates from their raw inputs. The
// private-level metrics (L1/L2 miss rates and MPKI) come from front, the
// below-L2 metrics (LLC, AMAT, fill mix) from below: the sequential path
// passes the same hierarchy twice, while a fan-out follower pairs the
// group's shared front hierarchy with its own private LLC + memory.
func fillResultParts(res *Result, instrs, cycles uint64, cst *cpu.Stats, front, below *cache.Hierarchy, engine *pinte.Engine) {
	llc := below.LLC().Stats
	res.Instrs = instrs
	res.Cycles = cycles
	if res.Cycles > 0 {
		res.IPC = float64(res.Instrs) / float64(res.Cycles)
	}
	res.MissRate = llc.MissRateCore(0)
	res.AMAT = below.AMAT(0)
	res.ContentionRate = llc.ContentionRate(0)
	res.BranchAccuracy = cst.BranchAccuracy()
	ki := float64(res.Instrs) / 1000
	if ki > 0 {
		res.L2MPKI = float64(front.L2(0).Stats.Misses[0]) / ki
		res.LLCMPKI = float64(llc.Misses[0]) / ki
	}
	fills := below.Stats.LLCDemandFills + below.Stats.LLCWritebackFills
	if fills > 0 {
		res.LLCWritebackFillShare = float64(below.Stats.LLCWritebackFills) / float64(fills)
	}
	res.ReuseHist = append([]uint64(nil), llc.ReuseHistCore[0]...)
	if n := len(res.Samples); n > 0 {
		var s float64
		for _, smp := range res.Samples {
			s += smp.OccupancyFrac
		}
		res.OccupancyFrac = s / float64(n)
	}
	if engine != nil {
		st := engine.Stats
		res.Engine = &st
	}
	res.PrefetchIssued = front.Stats.PrefetchIssued
	res.PrefetchFromDRAM = front.Stats.PrefetchFromDRAM
	res.PrefetchUseful = below.LLC().Stats.PrefetchUseful +
		front.L1D(0).Stats.PrefetchUseful + front.L2(0).Stats.PrefetchUseful
	res.L1DMissRate = front.L1D(0).Stats.MissRateCore(0)
	res.L2MissRate = front.L2(0).Stats.MissRateCore(0)
}

// sampler computes interval deltas of cumulative counters. It reads the
// primary core's clocks through pointers so the fan-out executor, whose
// followers keep their counts in plain locals rather than a cpu.Core,
// can drive the identical sampling code.
type sampler struct {
	cfg    Config
	instrs *uint64
	cycles *uint64
	hier   *cache.Hierarchy

	nextAt uint64
	prev   snapshot
}

type snapshot struct {
	instrs, cycles     uint64
	llcAcc, llcMiss    uint64
	theftsExp, theftsC uint64
	mock               uint64
	dataAcc, dataLat   uint64
}

func newSampler(cfg Config, instrs, cycles *uint64, hier *cache.Hierarchy) *sampler {
	s := &sampler{cfg: cfg, instrs: instrs, cycles: cycles, hier: hier}
	s.prev = s.snap()
	s.nextAt = *instrs + cfg.SampleEvery
	return s
}

func (s *sampler) snap() snapshot {
	llc := s.hier.LLC().Stats
	return snapshot{
		instrs:    *s.instrs,
		cycles:    *s.cycles,
		llcAcc:    llc.Accesses[0],
		llcMiss:   llc.Misses[0],
		theftsExp: llc.TheftsExperienced[0],
		theftsC:   llc.TheftsCaused[0],
		mock:      llc.MockThefts[0],
		dataAcc:   s.hier.Stats.DemandDataAccesses[0],
		dataLat:   s.hier.Stats.DemandDataLatency[0],
	}
}

// maybeSample appends interval samples for every boundary the primary
// core has crossed since the last call.
func (s *sampler) maybeSample(out *[]Sample) {
	if *s.instrs < s.nextAt {
		return
	}
	cur := s.snap()
	p := s.prev
	smp := Sample{Instrs: cur.instrs}
	if dc := cur.cycles - p.cycles; dc > 0 {
		smp.IPC = float64(cur.instrs-p.instrs) / float64(dc)
	}
	if da := cur.llcAcc - p.llcAcc; da > 0 {
		smp.MissRate = float64(cur.llcMiss-p.llcMiss) / float64(da)
		smp.InterferenceRate = float64(cur.theftsExp-p.theftsExp) / float64(da)
		smp.TheftRate = float64(cur.theftsC-p.theftsC+cur.mock-p.mock) / float64(da)
	}
	if dd := cur.dataAcc - p.dataAcc; dd > 0 {
		smp.AMAT = float64(cur.dataLat-p.dataLat) / float64(dd)
	}
	llc := s.hier.LLC()
	smp.OccupancyFrac = float64(llc.Stats.Occupancy[0]) / float64(llc.CapacityBlocks())
	*out = append(*out, smp)
	s.prev = cur
	s.nextAt = cur.instrs + s.cfg.SampleEvery
}
