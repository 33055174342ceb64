package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/phase"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SampleStats reports how a phase-sampled run spent its budget and how
// far its extrapolation is warranted to stray from a full-ROI run.
type SampleStats struct {
	// Phases and Windows describe the plan; Intervals is the profiled
	// series length the plan was clustered from.
	Phases    int `json:"phases"`
	Windows   int `json:"windows"`
	Intervals int `json:"intervals"`
	// InstrsSimulated is the detailed budget paid (window warmups +
	// windows); InstrsSkipped the fast-forwarded remainder.
	InstrsSimulated uint64 `json:"instrs_simulated"`
	InstrsSkipped   uint64 `json:"instrs_skipped"`
	// Bounds are the plan's per-metric self-consistency error bounds
	// (see phase.Bounds).
	Bounds phase.Bounds `json:"bounds"`
	// TriggerRateBound widens the plan's trigger-rate bound by the
	// binomial sampling noise of the windows actually measured (the
	// same 4.5σ half-width the telemetry audit uses), so the realized
	// P_Induce of a sampled run carries an honest tolerance.
	TriggerRateBound float64 `json:"trigger_rate_bound"`
}

// SampleEligible reports whether cfg can execute in phase-sampled mode.
// Sampling drives a single primary core through skip/window cycles, so
// multi-core modes are out; features with their own instruction-count
// schedules (partitioning epochs, independent injection, telemetry
// collection) or probabilistic memory-side state (DRAM contention) are
// excluded because skipping would silently decouple their clocks.
func SampleEligible(cfg Config) bool {
	c := cfg.withDefaults()
	if c.Mode != Isolation && c.Mode != PInTE {
		return false
	}
	return c.Partitioning == "" && c.LLCWayAllocation == 0 &&
		c.IndependentPeriod == 0 && c.DRAMContentionProb == 0 &&
		c.TelemetryEvery == 0
}

// winSnap is one point-in-time capture of every counter the sampled
// extrapolation differentiates across a window.
type winSnap struct {
	instrs, cycles uint64
	core           cpu.Stats

	l1dAcc, l1dMiss uint64
	l2Acc, l2Miss   uint64
	llcAcc, llcMiss uint64
	theftsExp       uint64
	dataAcc         uint64
	dataLat         uint64
	demFills        uint64
	wbFills         uint64
	pfIssued        uint64
	pfFromDRAM      uint64
	pfUseful        uint64
	engine          pinte.Stats
	occ             uint64
}

func snapWindow(core *cpu.Core, hier *cache.Hierarchy, engine *pinte.Engine) winSnap {
	llc := &hier.LLC().Stats
	s := winSnap{
		instrs:     core.Instrs,
		cycles:     core.Cycles,
		core:       core.Stats,
		l1dAcc:     hier.L1D(0).Stats.Accesses[0],
		l1dMiss:    hier.L1D(0).Stats.Misses[0],
		l2Acc:      hier.L2(0).Stats.Accesses[0],
		l2Miss:     hier.L2(0).Stats.Misses[0],
		llcAcc:     llc.Accesses[0],
		llcMiss:    llc.Misses[0],
		theftsExp:  llc.TheftsExperienced[0],
		dataAcc:    hier.Stats.DemandDataAccesses[0],
		dataLat:    hier.Stats.DemandDataLatency[0],
		demFills:   hier.Stats.LLCDemandFills,
		wbFills:    hier.Stats.LLCWritebackFills,
		pfIssued:   hier.Stats.PrefetchIssued,
		pfFromDRAM: hier.Stats.PrefetchFromDRAM,
		pfUseful: llc.PrefetchUseful + hier.L1D(0).Stats.PrefetchUseful +
			hier.L2(0).Stats.PrefetchUseful,
		occ: llc.Occupancy[0],
	}
	if engine != nil {
		s.engine = engine.Stats
	}
	return s
}

// extAcc accumulates cluster-weighted window deltas in float64 — the
// extrapolated full-ROI totals.
type extAcc struct {
	instrs, cycles   float64
	branches, misp   float64
	l1dAcc, l1dMiss  float64
	l2Acc, l2Miss    float64
	llcAcc, llcMiss  float64
	theftsExp        float64
	dataAcc, dataLat float64
	demFills         float64
	wbFills          float64
	pfIssued         float64
	pfFromDRAM       float64
	pfUseful         float64
	engAcc, engTrig  float64
	engBudget        float64
	engProm, engInv  float64
	occWeighted      float64 // cover-weighted end-of-window occupancy frac

	// rawEngAcc/rawEngTrig are the unscaled measured engine events, the
	// binomial n behind the trigger-rate noise bound.
	rawEngAcc, rawEngTrig uint64
}

func (e *extAcc) add(a, b winSnap, scale, coverFrac float64, capBlocks uint64) {
	e.instrs += float64(b.instrs-a.instrs) * scale
	e.cycles += float64(b.cycles-a.cycles) * scale
	e.branches += float64(b.core.Branches-a.core.Branches) * scale
	e.misp += float64(b.core.Mispredicts-a.core.Mispredicts) * scale
	e.l1dAcc += float64(b.l1dAcc-a.l1dAcc) * scale
	e.l1dMiss += float64(b.l1dMiss-a.l1dMiss) * scale
	e.l2Acc += float64(b.l2Acc-a.l2Acc) * scale
	e.l2Miss += float64(b.l2Miss-a.l2Miss) * scale
	e.llcAcc += float64(b.llcAcc-a.llcAcc) * scale
	e.llcMiss += float64(b.llcMiss-a.llcMiss) * scale
	e.theftsExp += float64(b.theftsExp-a.theftsExp) * scale
	e.dataAcc += float64(b.dataAcc-a.dataAcc) * scale
	e.dataLat += float64(b.dataLat-a.dataLat) * scale
	e.demFills += float64(b.demFills-a.demFills) * scale
	e.wbFills += float64(b.wbFills-a.wbFills) * scale
	e.pfIssued += float64(b.pfIssued-a.pfIssued) * scale
	e.pfFromDRAM += float64(b.pfFromDRAM-a.pfFromDRAM) * scale
	e.pfUseful += float64(b.pfUseful-a.pfUseful) * scale
	e.engAcc += float64(b.engine.Accesses-a.engine.Accesses) * scale
	e.engTrig += float64(b.engine.Triggers-a.engine.Triggers) * scale
	e.engBudget += float64(b.engine.EvictBudget-a.engine.EvictBudget) * scale
	e.engProm += float64(b.engine.Promotions-a.engine.Promotions) * scale
	e.engInv += float64(b.engine.Invalidations-a.engine.Invalidations) * scale
	e.rawEngAcc += b.engine.Accesses - a.engine.Accesses
	e.rawEngTrig += b.engine.Triggers - a.engine.Triggers
	if capBlocks > 0 {
		e.occWeighted += coverFrac * float64(b.occ) / float64(capBlocks)
	}
}

func round(f float64) uint64 {
	if f <= 0 {
		return 0
	}
	return uint64(f + 0.5)
}

// runSampled executes cfg in phase-sampled mode: it fast-forwards the
// instruction stream between the plan's representative windows,
// simulates each window in detail after a short cache/predictor warmup,
// and extrapolates full-ROI metrics as the cluster-weighted sum of the
// window deltas. The machine is set up exactly as RunContext's
// single-core path (same seeds, same component wiring), so a plan whose
// one window spans the whole ROI reproduces the full run byte for byte
// — the equivalence TestSampledFullWindowMatchesRun enforces.
//
// The config's own WarmupInstrs region is not simulated: each window
// carries its own detailed warmup (plan.WarmupInstrs), which is what
// makes the ≥5× budget cut possible. Window state is therefore only
// warm over that run-in — the standard SimPoint-style approximation the
// plan's error bounds account for.
func runSampled(ctx context.Context, cfg Config) (*Result, error) {
	start := time.Now()
	plan := cfg.Sample

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
	hcfg := cfg.Hier
	hcfg.Cores = 1
	hcfg.Seed = cfg.Seed
	hier, err := cache.NewHierarchy(hcfg, mem)
	if err != nil {
		return nil, err
	}
	defer hier.Release()
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
	var src trace.Reader = gen0
	if fault.Enabled() {
		src = &faultSource{src: gen0}
	}
	bp0, err := branch.New(cfg.Branch)
	if err != nil {
		return nil, err
	}
	defer release(bp0)
	core0 := cpu.NewCore(0, cpuCfg, src, hier, bp0)
	defer core0.Release()
	sys := cpu.NewSystem(core0)
	sys.RestartFinished = true

	var engine *pinte.Engine
	if cfg.Mode == PInTE {
		eseed := cfg.EngineSeed
		if eseed == 0 {
			eseed = cfg.Seed + 7
		}
		engine, err = pinte.NewEngine(pinte.Params{PInduce: cfg.PInduce, Seed: eseed})
		if err != nil {
			return nil, err
		}
		hier.LLC().SetInjector(engine)
		hier.LLC().SetWritebackSink(func(addr uint64) {
			mem.Access(core0.Cycles, addr, true)
		})
	}

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

	// skipped tracks records fast-forwarded past without simulation;
	// core0.Instrs + skipped is the absolute stream position. Windows
	// are ROI-relative, and the profiled ROI began after the config's
	// warmup, so window w starts at stream position WarmupInstrs+w.Start.
	var skipped uint64
	pos := func() uint64 { return core0.Instrs + skipped }
	runTo := func(target uint64) error {
		if pos() >= target {
			return nil
		}
		if err := sys.Run(func(*cpu.Core) bool {
			return interrupted() || core0.Instrs+skipped >= target
		}); err != nil {
			return err
		}
		return stopErr
	}

	var ext extAcc
	capBlocks := hier.LLC().CapacityBlocks()
	totalCover := plan.TotalCover()
	var simInstrs uint64
	for _, w := range plan.Windows {
		width := w.End - w.Start
		if width == 0 || w.CoverInstrs == 0 {
			continue
		}
		absStart := cfg.WarmupInstrs + w.Start
		warmStart := absStart
		if plan.WarmupInstrs < warmStart {
			warmStart = absStart - plan.WarmupInstrs
		} else {
			warmStart = 0
		}
		if warmStart > pos() {
			n := warmStart - pos()
			got := core0.SkipInstrs(n)
			skipped += got
			if got < n {
				if err := core0.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("sim: trace ended %d records into a %d-record seek", got, n)
			}
		}
		preWarm := core0.Instrs
		if err := runTo(absStart); err != nil {
			return nil, err
		}
		a := snapWindow(core0, hier, engine)
		if err := runTo(pos() + width); err != nil {
			return nil, err
		}
		b := snapWindow(core0, hier, engine)
		simInstrs += core0.Instrs - preWarm
		scale := float64(w.CoverInstrs) / float64(b.instrs-a.instrs)
		coverFrac := float64(w.CoverInstrs) / float64(totalCover)
		ext.add(a, b, scale, coverFrac, capBlocks)
	}
	if ext.instrs == 0 {
		return nil, fmt.Errorf("%w: sampling plan has no usable windows", ErrBadConfig)
	}

	res := &Result{Config: resultConfig(cfg)}
	res.Instrs = round(ext.instrs)
	res.Cycles = round(ext.cycles)
	if ext.cycles > 0 {
		res.IPC = ext.instrs / ext.cycles
	}
	if ext.llcAcc > 0 {
		res.MissRate = ext.llcMiss / ext.llcAcc
		res.ContentionRate = ext.theftsExp / ext.llcAcc
	}
	if ext.dataAcc > 0 {
		res.AMAT = ext.dataLat / ext.dataAcc
	}
	res.BranchAccuracy = 1
	if ext.branches > 0 {
		res.BranchAccuracy = 1 - ext.misp/ext.branches
	}
	if ki := ext.instrs / 1000; ki > 0 {
		res.L2MPKI = ext.l2Miss / ki
		res.LLCMPKI = ext.llcMiss / ki
	}
	if fills := ext.demFills + ext.wbFills; fills > 0 {
		res.LLCWritebackFillShare = ext.wbFills / fills
	}
	if ext.l1dAcc > 0 {
		res.L1DMissRate = ext.l1dMiss / ext.l1dAcc
	}
	if ext.l2Acc > 0 {
		res.L2MissRate = ext.l2Miss / ext.l2Acc
	}
	res.OccupancyFrac = ext.occWeighted
	res.PrefetchIssued = round(ext.pfIssued)
	res.PrefetchFromDRAM = round(ext.pfFromDRAM)
	res.PrefetchUseful = round(ext.pfUseful)
	if engine != nil {
		res.Engine = &pinte.Stats{
			Accesses:      round(ext.engAcc),
			Triggers:      round(ext.engTrig),
			EvictBudget:   round(ext.engBudget),
			Promotions:    round(ext.engProm),
			Invalidations: round(ext.engInv),
		}
	}

	st := &SampleStats{
		Phases:          plan.Phases,
		Windows:         len(plan.Windows),
		Intervals:       plan.Intervals,
		InstrsSimulated: simInstrs,
		InstrsSkipped:   skipped,
		Bounds:          plan.Bounds,
	}
	st.TriggerRateBound = plan.Bounds.TriggerRateAbs
	if ext.rawEngAcc > 0 {
		p := float64(ext.rawEngTrig) / float64(ext.rawEngAcc)
		st.TriggerRateBound += 4.5 * math.Sqrt(p*(1-p)/float64(ext.rawEngAcc))
	}
	res.Sampled = st

	telemetry.Phase.SampledRuns.Add(1)
	telemetry.Phase.InstrsSimulated.Add(int64(simInstrs))
	telemetry.Phase.InstrsSkipped.Add(int64(skipped))
	if plan.Every > 0 {
		covered := int64(len(plan.Windows))
		telemetry.Phase.IntervalsSimulated.Add(covered)
		telemetry.Phase.IntervalsSkipped.Add(int64(plan.Intervals) - covered)
	}

	res.WallTime = time.Since(start)
	return res, nil
}
