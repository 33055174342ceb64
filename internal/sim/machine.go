package sim

import (
	"context"
	"fmt"

	"repro/internal/branch"
	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/partition"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// machine is one simulated machine: DRAM (behind the contention
// extension when enabled), the cache hierarchy with its partitioning or
// way allocation, and the PInTE engine or ticker. The full, sampled and
// fan-out follower paths all build it with newMachine; a feature a path
// cannot run is off because its config field is zero, never because the
// constructor knows who called it.
type machine struct {
	cfg     Config
	mem     *dram.DRAM
	dramInj *pinte.DRAMContention
	hier    *cache.Hierarchy
	ctrl    partition.Controller
	engine  *pinte.Engine
	ticker  *pinte.Ticker

	// front is the hierarchy whose private levels served the primary
	// core: hier itself, except on a fan-out follower, whose L1/L2 ran
	// in the group's shared capture front.
	front *cache.Hierarchy
	// instrs, cycles and cstats are the primary core's counters, which
	// snap reads and whose cycle count times the writeback sink: a
	// cpu.Core's own fields, or a follower's locals. The caller points
	// them before the machine runs.
	instrs, cycles *uint64
	cstats         *cpu.Stats

	nextTick, nextRealloc, reallocEvery uint64

	// cores and preds are recycled by release, and src, the primary
	// core's stream, is released.
	cores []*cpu.Core
	preds []branch.Predictor
	src   trace.Source
}

// newMachine builds cfg's machine (cfg has its defaults applied). The
// caller owns it and must release it however its run ends, even long
// after a watchdog abandoned the run.
func newMachine(cfg Config) (_ *machine, err error) {
	dcfg := dram.Default()
	if cfg.DRAM != nil {
		dcfg = *cfg.DRAM
	}
	mem, err := dram.New(dcfg)
	if err != nil {
		return nil, err
	}
	m := &machine{cfg: cfg, mem: mem}
	var hierMem cache.Memory = mem
	if cfg.DRAMContentionProb > 0 {
		m.dramInj, err = pinte.NewDRAMContention(pinte.DRAMContentionParams{
			Probability:   cfg.DRAMContentionProb,
			PenaltyCycles: cfg.DRAMContentionPenalty,
			Seed:          cfg.Seed + 11,
		}, mem)
		if err != nil {
			return nil, err
		}
		hierMem = m.dramInj
	}
	hcfg := cfg.Hier
	hcfg.Cores = 1
	if cfg.Mode == SecondTrace {
		hcfg.Cores = 2 + len(cfg.Adversaries)
	}
	hcfg.Seed = cfg.Seed
	if m.hier, err = cache.NewHierarchy(hcfg, hierMem); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			m.release()
		}
	}()
	m.front = m.hier
	llc := m.hier.LLC()
	if cfg.Partitioning != "" {
		if m.ctrl, err = partition.New(cfg.Partitioning, hcfg.Cores); err != nil {
			return nil, err
		}
		m.ctrl.Attach(llc)
	}
	if n := cfg.LLCWayAllocation; n > 0 {
		if n > llc.Ways() {
			return nil, fmt.Errorf("%w: LLC way allocation %d exceeds %d ways", ErrBadConfig, n, llc.Ways())
		}
		for core := 0; core < hcfg.Cores; core++ {
			if err := llc.SetWayPartition(core, uint64(1)<<uint(n)-1); err != nil {
				return nil, err
			}
		}
	}
	if cfg.Mode == PInTE {
		eseed := cfg.EngineSeed
		if eseed == 0 {
			eseed = cfg.Seed + 7
		}
		if m.engine, err = pinte.NewEngine(pinte.Params{PInduce: cfg.PInduce, Seed: eseed}); err != nil {
			return nil, err
		}
		if cfg.IndependentPeriod > 0 {
			// Extension: the flow runs on a schedule instead of on LLC
			// accesses.
			if m.ticker, err = pinte.NewTicker(m.engine, llc); err != nil {
				return nil, err
			}
		} else {
			llc.SetInjector(m.engine)
		}
		llc.SetWritebackSink(func(addr uint64) { mem.Access(*m.cycles, addr, true) })
	}
	m.nextTick = cfg.IndependentPeriod
	m.reallocEvery = cfg.ReallocEvery
	if m.reallocEvery == 0 {
		m.reallocEvery = 50_000
	}
	m.nextRealloc = m.reallocEvery
	return m, nil
}

// primarySource opens cfg's primary stream: the replay cache when one is
// attached, a fresh generator otherwise. Chaos mode interposes on it so
// trace.read faults surface mid-run; it is never wrapped in production,
// keeping the hot call edge devirtualised. The caller releases the
// source when its reads end.
func primarySource(cfg Config, spec trace.Spec) (trace.Source, error) {
	streams := cfg.Streams
	if streams == nil {
		streams = trace.Generate{}
	}
	src, err := streams.Source(spec, primarySeed(cfg), 0)
	if err != nil {
		return nil, err
	}
	if err := fault.Err(fault.SiteSimSource); err != nil {
		release(src)
		return nil, err
	}
	if fault.Enabled() {
		src = &faultSource{src: src}
	}
	return src, nil
}

// primarySeed is the generator seed of cfg's primary stream.
func primarySeed(cfg Config) uint64 { return cfg.Seed + 1 }

// PrimaryStream names the record stream cfg's primary core reads: the
// spec, seed and base its run passes to cfg.Streams (or the generator).
// Runs with equal PrimaryStream values read byte-identical streams.
func PrimaryStream(cfg Config) (spec trace.Spec, seed, base uint64, err error) {
	spec, err = specFor(cfg.Workload, cfg.WorkloadSpec)
	return spec, primarySeed(cfg), 0, err
}

// primaryCPU is the primary core's timing: cfg.CPU, with the workload
// spec's MLP hint when cfg sets none.
func primaryCPU(cfg Config, spec trace.Spec) cpu.Config {
	c := cfg.CPU
	if c.MLP == 0 {
		c.MLP = spec.MLP
	}
	return c
}

// primaryCore builds core 0 on m from cfg's workload and points m's
// primary-core counters at it.
func (m *machine) primaryCore() (*cpu.Core, error) {
	spec, err := specFor(m.cfg.Workload, m.cfg.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	src, err := primarySource(m.cfg, spec)
	if err != nil {
		return nil, err
	}
	m.src = src
	c, err := m.addCore(0, primaryCPU(m.cfg, spec), src)
	if err != nil {
		return nil, err
	}
	m.instrs, m.cycles, m.cstats = &c.Instrs, &c.Cycles, &c.Stats
	return c, nil
}

// addCore builds core id on m's hierarchy with its own cfg.Branch
// predictor.
func (m *machine) addCore(id int, cc cpu.Config, src trace.Reader) (*cpu.Core, error) {
	bp, err := branch.New(m.cfg.Branch)
	if err != nil {
		return nil, err
	}
	m.preds = append(m.preds, bp)
	c := cpu.NewCore(id, cc, src, m.hier, bp)
	m.cores = append(m.cores, c)
	return c, nil
}

// release recycles the machine's arrays (see internal/recycle) and
// releases its primary stream, whose replay cache may then recycle the
// stream's arenas.
func (m *machine) release() {
	for _, c := range m.cores {
		c.Release()
	}
	for _, bp := range m.preds {
		release(bp)
	}
	m.hier.Release()
	release(m.src)
}

// tick advances the schedules that run on the primary core's
// instruction count, access-independent injection and partitioning
// epochs, to its current count. Both are off unless cfg enables them.
func (m *machine) tick() {
	if m.ticker != nil {
		for *m.instrs >= m.nextTick {
			m.ticker.Tick()
			m.nextTick += m.cfg.IndependentPeriod
		}
	}
	if m.ctrl != nil {
		for *m.instrs >= m.nextRealloc {
			for i, mask := range m.ctrl.Reallocate(m.hier.LLC()) {
				if err := m.hier.LLC().SetWayPartition(i, mask); err != nil {
					panic(err) // masks are constructed in-range
				}
			}
			m.nextRealloc += m.reallocEvery
		}
	}
}

// resetStats ends warm-up: every event counter restarts from zero while
// clocks keep running (they are physical time shared with the DRAM bank
// timestamps).
func (m *machine) resetStats() {
	m.hier.ResetStats()
	*m.cstats = cpu.Stats{}
	for _, c := range m.cores {
		c.ResetStats()
	}
	m.mem.Stats = dram.Stats{}
	if m.engine != nil {
		m.engine.ResetStats()
	}
	if m.dramInj != nil {
		m.dramInj.ResetStats()
	}
}

// counters is one point-in-time capture of every cumulative counter a
// run differentiates: a Result's ROI totals, the sampled path's window
// deltas, the run-time Samples and the telemetry intervals are all
// differences of two of them. snap fills one on the caller's stack.
type counters struct {
	instrs, cycles    uint64
	branches, misp    uint64
	l1dAcc, l1dMiss   uint64
	l2Acc, l2Miss     uint64
	llcAcc, llcMiss   uint64
	theftsExp         uint64
	thefts            uint64 // thefts caused, mock thefts included
	dataAcc, dataLat  uint64
	demFills, wbFills uint64
	pfIssued          uint64
	pfFromDRAM        uint64
	pfUseful          uint64
	occ               uint64 // LLC blocks the primary core holds
	engine            pinte.Stats
}

// snap captures the primary core's counters: its private levels from
// m.front, everything below the L2 from m.hier.
func (m *machine) snap() counters {
	llc := &m.hier.LLC().Stats
	l1d, l2 := &m.front.L1D(0).Stats, &m.front.L2(0).Stats
	c := counters{
		instrs:     *m.instrs,
		cycles:     *m.cycles,
		branches:   m.cstats.Branches,
		misp:       m.cstats.Mispredicts,
		l1dAcc:     l1d.Accesses[0],
		l1dMiss:    l1d.Misses[0],
		l2Acc:      l2.Accesses[0],
		l2Miss:     l2.Misses[0],
		llcAcc:     llc.Accesses[0],
		llcMiss:    llc.Misses[0],
		theftsExp:  llc.TheftsExperienced[0],
		thefts:     llc.TheftsCaused[0] + llc.MockThefts[0],
		dataAcc:    m.hier.Stats.DemandDataAccesses[0],
		dataLat:    m.hier.Stats.DemandDataLatency[0],
		demFills:   m.hier.Stats.LLCDemandFills,
		wbFills:    m.hier.Stats.LLCWritebackFills,
		pfIssued:   m.front.Stats.PrefetchIssued,
		pfFromDRAM: m.front.Stats.PrefetchFromDRAM,
		pfUseful:   llc.PrefetchUseful + l1d.PrefetchUseful + l2.PrefetchUseful,
		occ:        llc.Occupancy[0],
	}
	if m.engine != nil {
		c.engine = m.engine.Stats
	}
	return c
}

// telemetry projects c onto the counters the telemetry collector
// differentiates.
func (c counters) telemetry() telemetry.Counters {
	return telemetry.Counters{
		Instrs:              c.instrs,
		Cycles:              c.cycles,
		L1DMisses:           c.l1dMiss,
		L2Misses:            c.l2Miss,
		LLCMisses:           c.llcMiss,
		LLCOccupancy:        c.occ,
		EngineAccesses:      c.engine.Accesses,
		EngineTriggers:      c.engine.Triggers,
		EngineEvictBudget:   c.engine.EvictBudget,
		EnginePromotions:    c.engine.Promotions,
		EngineInvalidations: c.engine.Invalidations,
	}
}

// totals are a run's ROI counter totals in float64: exact counts on the
// full and follower paths, cover-scaled window sums on the sampled path.
type totals struct {
	instrs, cycles    float64
	branches, misp    float64
	l1dAcc, l1dMiss   float64
	l2Acc, l2Miss     float64
	llcAcc, llcMiss   float64
	theftsExp         float64
	dataAcc, dataLat  float64
	demFills, wbFills float64
	pfIssued          float64
	pfFromDRAM        float64
	pfUseful          float64
	engAcc, engTrig   float64
	engBudget         float64
	engProm, engInv   float64
}

// add accumulates the counter deltas from a to b, scaled. Scale 1 keeps
// counts exact (every count is far below 2^53).
func (t *totals) add(a, b *counters, scale float64) {
	d := func(from, to uint64) float64 { return float64(to-from) * scale }
	t.instrs += d(a.instrs, b.instrs)
	t.cycles += d(a.cycles, b.cycles)
	t.branches += d(a.branches, b.branches)
	t.misp += d(a.misp, b.misp)
	t.l1dAcc += d(a.l1dAcc, b.l1dAcc)
	t.l1dMiss += d(a.l1dMiss, b.l1dMiss)
	t.l2Acc += d(a.l2Acc, b.l2Acc)
	t.l2Miss += d(a.l2Miss, b.l2Miss)
	t.llcAcc += d(a.llcAcc, b.llcAcc)
	t.llcMiss += d(a.llcMiss, b.llcMiss)
	t.theftsExp += d(a.theftsExp, b.theftsExp)
	t.dataAcc += d(a.dataAcc, b.dataAcc)
	t.dataLat += d(a.dataLat, b.dataLat)
	t.demFills += d(a.demFills, b.demFills)
	t.wbFills += d(a.wbFills, b.wbFills)
	t.pfIssued += d(a.pfIssued, b.pfIssued)
	t.pfFromDRAM += d(a.pfFromDRAM, b.pfFromDRAM)
	t.pfUseful += d(a.pfUseful, b.pfUseful)
	t.engAcc += d(a.engine.Accesses, b.engine.Accesses)
	t.engTrig += d(a.engine.Triggers, b.engine.Triggers)
	t.engBudget += d(a.engine.EvictBudget, b.engine.EvictBudget)
	t.engProm += d(a.engine.Promotions, b.engine.Promotions)
	t.engInv += d(a.engine.Invalidations, b.engine.Invalidations)
}

// derive sets every ROI metric of res that t determines. OccupancyFrac,
// ReuseHist and Engine differ per path and are the caller's.
func (t *totals) derive(res *Result) {
	res.Instrs = round(t.instrs)
	res.Cycles = round(t.cycles)
	if t.cycles > 0 {
		res.IPC = t.instrs / t.cycles
	}
	if t.llcAcc > 0 {
		res.MissRate = t.llcMiss / t.llcAcc
		res.ContentionRate = t.theftsExp / t.llcAcc
	}
	if t.dataAcc > 0 {
		res.AMAT = t.dataLat / t.dataAcc
	}
	res.BranchAccuracy = 1
	if t.branches > 0 {
		res.BranchAccuracy = 1 - t.misp/t.branches
	}
	if ki := t.instrs / 1000; ki > 0 {
		res.L2MPKI = t.l2Miss / ki
		res.LLCMPKI = t.llcMiss / ki
	}
	if fills := t.demFills + t.wbFills; fills > 0 {
		res.LLCWritebackFillShare = t.wbFills / fills
	}
	if t.l1dAcc > 0 {
		res.L1DMissRate = t.l1dMiss / t.l1dAcc
	}
	if t.l2Acc > 0 {
		res.L2MissRate = t.l2Miss / t.l2Acc
	}
	res.PrefetchIssued = round(t.pfIssued)
	res.PrefetchFromDRAM = round(t.pfFromDRAM)
	res.PrefetchUseful = round(t.pfUseful)
}

func round(f float64) uint64 {
	if f <= 0 {
		return 0
	}
	return uint64(f + 0.5)
}

// finish fills res from the exact ROI counters since begin: the derived
// metrics, the mean sampled occupancy, the primary core's LLC reuse
// histogram, the engine's statistics and the extensions' outputs.
func (m *machine) finish(res *Result, begin counters) {
	var t totals
	end := m.snap()
	t.add(&begin, &end, 1)
	t.derive(res)
	res.ReuseHist = append([]uint64(nil), m.hier.LLC().Stats.ReuseHistCore[0]...)
	if n := len(res.Samples); n > 0 {
		var s float64
		for _, smp := range res.Samples {
			s += smp.OccupancyFrac
		}
		res.OccupancyFrac = s / float64(n)
	}
	if m.engine != nil {
		st := m.engine.Stats
		res.Engine = &st
	}
	if m.dramInj != nil {
		st := m.dramInj.Stats
		res.DRAMInjection = &st
	}
	if m.ticker != nil {
		res.IndependentTicks = m.ticker.Ticks
	}
	if m.ctrl != nil {
		for core := 0; core < m.hier.Cores(); core++ {
			res.Partition = append(res.Partition, m.hier.LLC().WayPartition(core))
		}
	}
}

// sampler computes the run-time Samples: deltas of the machine's
// counters every cfg.SampleEvery primary-core instructions.
type sampler struct {
	m      *machine
	nextAt uint64
	prev   counters
}

func newSampler(m *machine) *sampler {
	s := &sampler{m: m, prev: m.snap()}
	s.nextAt = s.prev.instrs + m.cfg.SampleEvery
	return s
}

// maybeSample appends interval samples for every boundary the primary
// core has crossed since the last call.
func (s *sampler) maybeSample(out *[]Sample) {
	if *s.m.instrs < s.nextAt {
		return
	}
	cur := s.m.snap()
	p := &s.prev
	smp := Sample{Instrs: cur.instrs}
	if dc := cur.cycles - p.cycles; dc > 0 {
		smp.IPC = float64(cur.instrs-p.instrs) / float64(dc)
	}
	if da := cur.llcAcc - p.llcAcc; da > 0 {
		smp.MissRate = float64(cur.llcMiss-p.llcMiss) / float64(da)
		smp.InterferenceRate = float64(cur.theftsExp-p.theftsExp) / float64(da)
		smp.TheftRate = float64(cur.thefts-p.thefts) / float64(da)
	}
	if dd := cur.dataAcc - p.dataAcc; dd > 0 {
		smp.AMAT = float64(cur.dataLat-p.dataLat) / float64(dd)
	}
	smp.OccupancyFrac = float64(cur.occ) / float64(s.m.hier.LLC().CapacityBlocks())
	*out = append(*out, smp)
	s.prev = cur
	s.nextAt = cur.instrs + s.m.cfg.SampleEvery
}

// simLoop runs a machine's cores under ctx to primary-core stream
// positions. After every scheduling quantum it calls each, then polls
// ctx: a done context stops the run with its taxonomy error.
type simLoop struct {
	ctx     context.Context
	sys     *cpu.System
	core    *cpu.Core
	skipped uint64 // records fast-forwarded past without simulation
	each    func()
}

func newSimLoop(ctx context.Context, core0 *cpu.Core, each func()) *simLoop {
	sys := cpu.NewSystem(core0)
	sys.RestartFinished = true
	return &simLoop{ctx: ctx, sys: sys, core: core0, each: each}
}

// pos is the primary core's absolute stream position.
func (l *simLoop) pos() uint64 { return l.core.Instrs + l.skipped }

// runTo runs until the primary core's stream position reaches target.
func (l *simLoop) runTo(target uint64) error {
	if l.pos() >= target {
		return nil
	}
	var stopErr error
	err := l.sys.Run(func(*cpu.Core) bool {
		l.each()
		select {
		case <-l.ctx.Done():
			stopErr = ctxError(l.ctx)
			return true
		default:
		}
		return l.pos() >= target
	})
	if err != nil {
		return err
	}
	return stopErr
}
