package sim

// Fan-out sweep execution: run the points of a sweep group that shares
// a (workload, seed) primary stream together, so the points that can
// share a front end pay for one decode and one front-end pass.
//
// RunFanGroup splits each group by fanDigestEligible:
//
//   - Eligible points — single-core Isolation/PInTE points on a
//     non-inclusive, prefetcher-free hierarchy, the common sweep shape —
//     ride the digest executor. Under that shape the whole front end
//     (trace decode, branch prediction, L1I/L1D/L2) evolves identically
//     across points: nothing below the L2 feeds back into it, so one
//     capture-mode pass (cache.FrontCapture) runs it once and records the
//     sparse stream of below-L2 work. Followers replay just that stream
//     against their own private LLC + memory + engine through the
//     production descend and writeback code, pricing instructions with
//     the same arithmetic as cpu.Core. This shares ~85% of a run's work,
//     not just the decode. The front decodes each batch exactly once;
//     replay.Fan's barrier keeps every follower within one batch of it
//     so views stay valid.
//
//   - Every other point (SecondTrace points, inclusive hierarchies,
//     prefetchers, telemetry collection, partitioning) runs as its own
//     per-run simulation inside the group, under the group's context,
//     chaos sites and stall watchdog.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	pinte "repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fanQuantum mirrors the system scheduler's quantum: the follower polls
// sampling and stop conditions at the same instruction boundaries as a
// sequential run, so record consumption and sample placement match.
const fanQuantum = uint64(cpu.DefaultQuantum)

// fanDigestBatch is the digest executor's shared batch in records. The
// decode buffer and the double-buffered digests scale with the batch,
// so a small one keeps a group's buffers to a few hundred KiB; each
// 64Ki-record replay chunk is still decoded once, in slices.
const fanDigestBatch = 4096

// errFanAborted reports a follower whose shared front ended before it.
var errFanAborted = errors.New("sim: fan-out front ended before its followers")

// FanPoint is one sweep point's outcome from RunFanGroup: exactly one
// of Res and Err is non-nil.
type FanPoint struct {
	Res *Result
	Err error
}

// FanGroupKey returns the grouping key for fan-out scheduling. Two
// configs with equal keys consume byte-identical primary record streams
// at identical scheduling boundaries — primary consumption depends only
// on the workload spec, Seed, and the quantum-aligned Warmup/ROI window,
// never on what happens below the L2 or on co-runners — so they can
// share one decode. The key is the normalized config with exactly the
// consumption-neutral per-point fields cleared.
func FanGroupKey(cfg Config) (string, error) {
	n := cfg.Normalized()
	n.Mode = Isolation
	n.PInduce = 0
	n.EngineSeed = 0
	n.Adversary = ""
	n.AdversarySpec = nil
	n.Adversaries = nil
	n.IndependentPeriod = 0
	n.DRAMContentionProb = 0
	n.DRAMContentionPenalty = 0
	n.Partitioning = ""
	n.ReallocEvery = 0
	n.LLCWayAllocation = 0
	n.TelemetryEvery = 0
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// fanDigestEligible reports whether a (defaulted) config can ride the
// digest executor: the front end must be point-invariant, which the
// capture mode's preconditions (non-inclusive, prefetcher-free) plus a
// single-core mode guarantee, and nothing outside the captured stream
// may observe the run (telemetry reads private-level counters the
// follower does not carry).
func fanDigestEligible(cfg Config) bool {
	if cfg.Mode != Isolation && cfg.Mode != PInTE {
		return false
	}
	if cfg.Hier.Inclusion != cache.NonInclusive {
		return false
	}
	if pf := cfg.Hier.Prefetch; pf != "" && pf != "000" {
		return false
	}
	if cfg.Partitioning != "" || cfg.LLCWayAllocation != 0 {
		return false
	}
	if cfg.IndependentPeriod != 0 || cfg.DRAMContentionProb != 0 {
		return false
	}
	return cfg.TelemetryEvery == 0
}

// RunFanGroup executes a fan-out group: every config must carry the
// same FanGroupKey (the scheduler in internal/runner groups by it).
// When at least two points are digest-eligible they share one decode
// and one front-end pass; the rest run per-run alongside them. Points
// fail independently — a panicking or faulted point surfaces in its own
// FanPoint while siblings complete. When ctx ends the group aborts;
// points still wedged grace later (a chaos hang) are abandoned with
// ErrStalled, mirroring the sequential stall watchdog. grace <= 0 waits
// indefinitely, like a disabled watchdog.
func RunFanGroup(ctx context.Context, cfgs []Config, grace time.Duration) []FanPoint {
	pts := make([]FanPoint, len(cfgs))
	if len(cfgs) == 0 {
		return pts
	}
	norm := make([]Config, len(cfgs))
	var key0 string
	var digest, solo []int
	for i, c := range cfgs {
		n := c.withDefaults()
		if err := n.validateDefaulted(); err != nil {
			return failAll(pts, err)
		}
		k, err := FanGroupKey(c)
		if err != nil {
			return failAll(pts, err)
		}
		if i == 0 {
			key0 = k
		} else if k != key0 {
			return failAll(pts, fmt.Errorf("%w: fan group mixes stream-incompatible configs", ErrBadConfig))
		}
		if fanDigestEligible(n) {
			digest = append(digest, i)
		} else {
			solo = append(solo, i)
		}
		norm[i] = n
	}
	if len(digest) < 2 {
		// A lone eligible point has no one to share a front end with.
		solo, digest = append(solo, digest...), nil
	}

	ch := make(chan fanDone, len(cfgs))
	abort := func(error) {} // per-run points watch ctx themselves
	if len(digest) > 0 {
		fan, err := startFanDigest(norm, digest, ch)
		if err != nil {
			for _, i := range digest {
				ch <- fanDone{i: i, err: err}
			}
		} else {
			abort = fan.Abort
			telemetry.Fanout.PointsFanned.Add(int64(len(digest)))
			telemetry.Fanout.DecodePasses.Add(1)
			telemetry.Fanout.DecodePassesSaved.Add(int64(len(digest) - 1))
		}
	}
	for _, i := range solo {
		go func(i int) {
			res, err := runFanSolo(ctx, cfgs[i])
			ch <- fanDone{i: i, res: res, err: err}
		}(i)
	}
	collectFan(ctx, abort, ch, grace, pts)
	return pts
}

func failAll(pts []FanPoint, err error) []FanPoint {
	for i := range pts {
		pts[i] = FanPoint{Err: err}
	}
	return pts
}

// fanDone carries one point's outcome to the collector.
type fanDone struct {
	i   int
	res *Result
	err error
}

// collectFan gathers point outcomes. When ctx ends it calls abort so
// barrier-parked followers unwind with the context's taxonomy error,
// then abandons any point still silent after grace.
func collectFan(ctx context.Context, abort func(error), ch <-chan fanDone, grace time.Duration, pts []FanPoint) {
	finished := make([]bool, len(pts))
	got := 0
	recv := func(d fanDone) {
		pts[d.i] = FanPoint{Res: d.res, Err: d.err}
		finished[d.i] = true
		got++
	}
	for got < len(pts) {
		select {
		case d := <-ch:
			recv(d)
			continue
		case <-ctx.Done():
		}
		break
	}
	if got == len(pts) {
		return
	}
	abort(ctxError(ctx))
	var deadline <-chan time.Time
	if grace > 0 {
		t := time.NewTimer(grace)
		defer t.Stop()
		deadline = t.C
	}
	for got < len(pts) {
		select {
		case d := <-ch:
			recv(d)
		case <-deadline:
			// Chaos hang: the point's goroutine never reports. Abandon it
			// exactly as the sequential stall watchdog abandons a wedged
			// run; a leaked follower's reader view stays valid (the fan
			// switches decode buffers once its reader is detached).
			for i := range pts {
				if !finished[i] {
					pts[i] = FanPoint{Err: ErrStalled}
					finished[i] = true
					got++
				}
			}
		}
	}
}

// fanWorkerChaos mirrors the sequential worker's chaos injection sites
// at fan-point granularity, so `make chaos` exercises a panicking, slow
// or hung point inside a live group.
func fanWorkerChaos() {
	if !fault.Enabled() {
		return
	}
	if fault.Fires(fault.SiteWorkerPanic) {
		panic(fmt.Sprintf("%v at %s (fan-out)", fault.ErrInjected, fault.SiteWorkerPanic))
	}
	if d := fault.Delay(fault.SiteWorkerSlow); d > 0 {
		time.Sleep(d)
	}
	if fault.Fires(fault.SiteWorkerHang) {
		fault.Hang()
	}
}

// runFanSolo runs one point the digest executor cannot take as a plain
// per-run simulation, behind the same chaos sites as a follower.
func runFanSolo(ctx context.Context, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fanWorkerChaos()
	return RunContext(ctx, cfg)
}

// ---------------------------------------------------------------------
// Digest executor
// ---------------------------------------------------------------------

// fanDigest is one decoded batch's front-end digest: the below-L2
// accesses (with their L2 writeback victims) and the mispredicted
// branches, both keyed by absolute instruction index. Double-buffered by
// the front; the barrier guarantees a buffer is idle before reuse.
type fanDigest struct {
	events []cache.FrontEvent
	wbs    []uint64
	misp   []uint64
	err    error
}

// mispTap wraps the front's branch predictor and records the instruction
// index of every mispredict, so followers replay outcomes without
// running a predictor of their own.
type mispTap struct {
	inner  branch.Predictor
	instrs *uint64
	misp   *[]uint64
	pred   bool
}

func (t *mispTap) Name() string { return t.inner.Name() }

func (t *mispTap) Predict(pc uint64) bool {
	t.pred = t.inner.Predict(pc)
	return t.pred
}

func (t *mispTap) Update(pc uint64, taken bool) {
	t.inner.Update(pc, taken)
	if t.pred != taken {
		*t.misp = append(*t.misp, *t.instrs)
	}
}

// fanFront is the digest executor's shared front end.
type fanFront struct {
	feed  *replay.FanReader
	cap   *cache.FrontCapture
	misp  []uint64
	hier  *cache.Hierarchy // exposed to followers after the final digest
	bufs  [2]fanDigest
	cur   int
	chans []chan *fanDigest
	alive []atomic.Bool
	begun bool
}

// publish seals the digest accumulated over the current batch, hands it
// to every live follower, and re-arms accumulation in the other buffer.
// The barrier makes the swap safe: by the time the front obtains batch
// g+1, every follower has finished batch g, hence digest g-1's buffer is
// idle. Sends cannot block — a follower that consumed digest g-1 has
// drained its channel (capacity 2 absorbs the one racing send a dying
// follower may still receive).
func (fr *fanFront) publish(err error) {
	if !fr.begun {
		// First call: no batch has been consumed yet, nothing to seal.
		fr.begun = true
		fr.rearm()
		return
	}
	d := &fr.bufs[fr.cur]
	d.events = fr.cap.Events
	d.wbs = fr.cap.WBAddrs
	d.misp = fr.misp
	d.err = err
	for i := range fr.chans {
		if fr.alive[i].Load() {
			fr.chans[i] <- d
		}
	}
	fr.cur ^= 1
	fr.rearm()
}

func (fr *fanFront) rearm() {
	d := &fr.bufs[fr.cur]
	fr.cap.Events = d.events[:0]
	fr.cap.WBAddrs = d.wbs[:0]
	fr.misp = d.misp[:0]
}

// frontFeed is the front core's trace reader: it seals and publishes the
// previous batch's digest before blocking on the barrier for the next
// one — the order matters, since followers must hold digest g to finish
// batch g and reach the barrier for g+1. The next batch's event
// offsets count from the core's instruction index at that point, which
// is the index of the batch's first record. It deliberately does not
// implement trace.Rewinder: the primary streams are unbounded, so a
// rewind request means the stream broke and the front must stop.
type frontFeed struct {
	fr *fanFront
}

func (f *frontFeed) NextSlice() ([]trace.Record, error) {
	f.fr.publish(nil)
	f.fr.cap.StartBatch()
	return f.fr.feed.NextSlice()
}

func (f *frontFeed) Next(rec *trace.Record) error { return f.fr.feed.Next(rec) }

// run executes the capture pass: a real core against a capture-mode
// hierarchy, mirroring RunContext's warm-up/ROI structure exactly so the
// front consumes the same quantum-aligned record count as a sequential
// run of any group member.
func (fr *fanFront) run(cfg Config, cpuCfg cpu.Config) error {
	hcfg := cfg.Hier
	hcfg.Cores = 1
	hcfg.Seed = cfg.Seed
	hier, err := cache.NewHierarchy(hcfg, noMem{})
	if err != nil {
		return err
	}
	// Followers read only the hierarchy's Stats, which Release keeps.
	defer hier.Release()
	bp, err := branch.New(cfg.Branch)
	if err != nil {
		return err
	}
	defer release(bp)
	tap := &mispTap{inner: bp, misp: &fr.misp}
	core := cpu.NewCore(0, cpuCfg, &frontFeed{fr: fr}, hier, tap)
	tap.instrs = &core.Instrs
	if err := hier.SetFrontCapture(fr.cap, &core.Instrs); err != nil {
		return err
	}
	fr.hier = hier
	sys := cpu.NewSystem(core)
	sys.RestartFinished = true
	if cfg.WarmupInstrs > 0 {
		err := sys.Run(func(*cpu.Core) bool { return core.Instrs >= cfg.WarmupInstrs })
		if err != nil {
			return err
		}
		if core.Instrs < cfg.WarmupInstrs {
			return io.ErrUnexpectedEOF
		}
		hier.ResetStats()
		core.ResetStats()
	}
	roiEnd := core.Instrs + cfg.ROIInstrs
	if err := sys.Run(func(*cpu.Core) bool { return core.Instrs >= roiEnd }); err != nil {
		return err
	}
	if core.Instrs < roiEnd {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// noMem backs the capture-mode hierarchy: capture stops every access at
// the L2 boundary, so a memory touch means the mode's preconditions were
// violated — fail loudly rather than corrupt the equivalence. The
// hierarchy's LLC panics the same way: SetFrontCapture releases it.
type noMem struct{}

func (noMem) Access(now, addr uint64, isWrite bool) uint64 {
	panic("sim: capture-mode hierarchy touched memory")
}

// startFanDigest starts the digest executor over the members idx of
// norm: one front capture pass feeding a follower per member, each
// reporting its outcome on out. It returns the fan so the collector can
// abort it.
func startFanDigest(norm []Config, idx []int, out chan<- fanDone) (*replay.Fan, error) {
	start := time.Now()
	cfg0 := norm[idx[0]]
	spec, err := specFor(cfg0.Workload, cfg0.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	streams := cfg0.Streams
	if streams == nil {
		streams = trace.Generate{}
	}
	src, err := streams.Source(spec, cfg0.Seed+1, 0)
	if err == nil {
		err = fault.Err(fault.SiteSimSource)
	}
	if err != nil {
		return nil, err
	}
	if fault.Enabled() {
		// The front drives the digest members' only decode, so the
		// per-run trace.read site interposes on the shared stream: a
		// fired fault fails every digest member, which then retry
		// sequentially.
		src = &faultSource{src: src}
	}
	n := len(idx)
	// No rewind factory: frontFeed hides trace.Rewinder, and followers
	// only call NextSlice.
	fan := replay.NewFan(src, n+1, fanDigestBatch, nil)

	cpuCfg := cfg0.CPU
	if cpuCfg.MLP == 0 {
		cpuCfg.MLP = spec.MLP
	}

	fr := &fanFront{feed: fan.Reader(0), cap: &cache.FrontCapture{}}
	fr.chans = make([]chan *fanDigest, n)
	fr.alive = make([]atomic.Bool, n)
	for i := 0; i < n; i++ {
		fr.chans[i] = make(chan *fanDigest, 2)
		fr.alive[i].Store(true)
	}

	go func() {
		var ferr error
		defer func() {
			if r := recover(); r != nil {
				ferr = &PanicError{Value: r, Stack: debug.Stack()}
			}
			if ferr != nil {
				// Unwedge followers parked at the barrier, then flush the
				// error marker for followers parked at a digest receive.
				fan.Abort(ferr)
			}
			fr.publish(ferr)
			fr.feed.Detach()
			for _, ch := range fr.chans {
				close(ch)
			}
		}()
		ferr = fr.run(cfg0, cpuCfg)
	}()

	for j, i := range idx {
		go func(j, i int) {
			res, err := runFanFollower(norm[i], cpuCfg, fr, fan.Reader(j+1), fr.chans[j], &fr.alive[j], start)
			out <- fanDone{i: i, res: res, err: err}
		}(j, i)
	}
	return fan, nil
}

// fanFollower is one point's private state in the digest executor: the
// point-dependent machine (LLC, DRAM, engine; the hierarchy's private
// levels are released once their hit latencies are read) plus the
// cpu.Core timing arithmetic replayed over digests.
type fanFollower struct {
	cfg    Config
	hier   *cache.Hierarchy
	mem    *dram.DRAM
	engine *pinte.Engine

	instrs   uint64
	cycles   uint64
	widthAcc int
	stats    cpu.Stats
	samples  []Sample
	smp      *sampler

	l1iLat, l1dLat, l2Lat uint64
	width                 int
	penalty               uint64
	mlp                   uint64
	mlpShift              int

	inROI                bool
	roiEnd               uint64
	roiStartI, roiStartC uint64
}

// runFanFollower builds and drives one follower to completion.
func runFanFollower(cfg Config, cpuCfg cpu.Config, fr *fanFront, rd *replay.FanReader, dig <-chan *fanDigest, alive *atomic.Bool, start time.Time) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
		alive.Store(false)
		rd.Detach()
	}()
	fanWorkerChaos()

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
	st := &fanFollower{cfg: cfg, hier: hier, mem: mem}
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
			mem.Access(st.cycles, addr, true)
		})
	}
	st.engine = engine

	rc := cpuCfg.Resolved()
	st.width = rc.Width
	st.penalty = rc.MispredictPenalty
	st.mlp = uint64(rc.MLP)
	st.mlpShift = -1
	if mlp := rc.MLP; mlp&(mlp-1) == 0 {
		st.mlpShift = bits.TrailingZeros(uint(mlp))
	}
	st.l1iLat = hier.L1I(0).HitLatency()
	st.l1dLat = hier.L1D(0).HitLatency()
	st.l2Lat = hier.L2(0).HitLatency()
	// The digest carries the front's L1/L2 outcomes; a follower only
	// ever descends below the L2, so it keeps just its LLC.
	hier.ReleasePrivate()

	if cfg.WarmupInstrs == 0 {
		st.enterROI()
	}

	for {
		view, verr := rd.NextSlice()
		if verr != nil {
			return nil, verr
		}
		d, ok := <-dig
		if !ok {
			return nil, errFanAborted
		}
		if d.err != nil {
			return nil, d.err
		}
		done, berr := st.runBatch(view, d)
		if berr != nil {
			return nil, berr
		}
		if done {
			break
		}
	}
	st.smp.maybeSample(&st.samples)

	res = &Result{Config: resultConfig(cfg), Samples: st.samples}
	fillResultParts(res, st.instrs-st.roiStartI, st.cycles-st.roiStartC,
		&st.stats, fr.hier, hier, engine)
	res.WallTime = time.Since(start)
	return res, nil
}

// enterROI mirrors RunContext's end-of-warm-up transition: reset event
// counters (clocks keep running), pin the ROI window, arm the sampler.
func (st *fanFollower) enterROI() {
	st.hier.ResetStats()
	st.stats = cpu.Stats{}
	st.mem.Stats = dram.Stats{}
	if st.engine != nil {
		st.engine.ResetStats()
	}
	st.roiStartI, st.roiStartC = st.instrs, st.cycles
	st.roiEnd = st.instrs + st.cfg.ROIInstrs
	st.smp = newSampler(st.cfg, &st.instrs, &st.cycles, st.hier)
	st.inROI = true
}

// runBatch prices one decoded batch against its digest. The arithmetic
// is cpu.Core.retire/loadStall verbatim, with the front-end outcomes
// (which accesses left the L1, their L2 victims, which branches
// mispredicted) read from the digest instead of recomputed. Event
// matching is cursor-order: the front emits events in issue order
// (ifetch, loads, store) stamped with the instruction's offset in the
// batch, which is its index k in view.
func (st *fanFollower) runBatch(view []trace.Record, d *fanDigest) (bool, error) {
	ev, wbs, misp := d.events, d.wbs, d.misp
	evPos, wbPos, mispPos := 0, 0, 0
	for k := range view {
		rec := &view[k]
		i := st.instrs
		off := uint32(k)

		// Instruction fetch: an event means the fetch left the L1I; its
		// latency beyond the L1I hit stalls the front end.
		if evPos < len(ev) && ev[evPos].Instr == off && ev[evPos].Kind == cache.Ifetch {
			e := &ev[evPos]
			evPos++
			il := st.l1iLat + st.l2Lat
			if e.Descend {
				il += st.hier.DescendLLC(0, e.Addr, st.cycles+il)
			}
			for j := uint8(0); j < e.WBs; j++ {
				st.hier.WritebackToLLC(0, wbs[wbPos])
				wbPos++
			}
			if il > st.l1iLat {
				st.cycles += il - st.l1iLat
			}
		}

		// Issue-width throughput.
		st.widthAcc++
		if st.widthAcc >= st.width {
			st.widthAcc = 0
			st.cycles++
		}

		if rec.IsBranch {
			st.stats.Branches++
			if mispPos < len(misp) && misp[mispPos] == i {
				mispPos++
				st.stats.Mispredicts++
				st.cycles += st.penalty
			}
		}

		if rec.Load0 != 0 {
			st.stats.Loads++
			evPos, wbPos = st.load(rec.Load0, rec.Dependent, off, ev, evPos, wbs, wbPos)
		}
		if rec.Load1 != 0 {
			st.stats.Loads++
			evPos, wbPos = st.load(rec.Load1, false, off, ev, evPos, wbs, wbPos)
		}

		if rec.Store != 0 {
			st.stats.Stores++
			lat := st.l1dLat
			if evPos < len(ev) && ev[evPos].Instr == off && ev[evPos].Kind == cache.StoreAccess {
				e := &ev[evPos]
				evPos++
				lat = st.l1dLat + st.l2Lat
				if e.Descend {
					lat += st.hier.DescendLLC(0, e.Addr, st.cycles+lat)
				}
				for j := uint8(0); j < e.WBs; j++ {
					st.hier.WritebackToLLC(0, wbs[wbPos])
					wbPos++
				}
			}
			// Stores retire through the write buffer: latency feeds the
			// AMAT inputs, no retirement stall.
			st.hier.Stats.DemandDataAccesses[0]++
			st.hier.Stats.DemandDataLatency[0] += lat
		}

		st.instrs++
		if st.instrs%fanQuantum == 0 {
			if !st.inROI {
				if st.instrs >= st.cfg.WarmupInstrs {
					st.enterROI()
				}
			} else {
				st.smp.maybeSample(&st.samples)
				if st.instrs >= st.roiEnd {
					return true, nil
				}
			}
		}
	}
	if evPos != len(ev) || wbPos != len(wbs) || mispPos != len(misp) {
		return false, fmt.Errorf("sim: fan digest mismatch (events %d/%d, writebacks %d/%d, mispredicts %d/%d)",
			evPos, len(ev), wbPos, len(wbs), mispPos, len(misp))
	}
	return false, nil
}

// load prices one demand load: cpu.Core.loadStall with the hierarchy
// outcome read from the digest. Loads with no event settled at the L1D
// hit latency (plain hit or repeat-hit fast path — both price and count
// identically).
func (st *fanFollower) load(addr uint64, dependent bool, off uint32, ev []cache.FrontEvent, evPos int, wbs []uint64, wbPos int) (int, int) {
	lat := st.l1dLat
	if evPos < len(ev) && ev[evPos].Instr == off && ev[evPos].Kind == cache.Load && ev[evPos].Addr == addr {
		e := &ev[evPos]
		evPos++
		lat = st.l1dLat + st.l2Lat
		if e.Descend {
			lat += st.hier.DescendLLC(0, addr, st.cycles+lat)
		}
		for j := uint8(0); j < e.WBs; j++ {
			st.hier.WritebackToLLC(0, wbs[wbPos])
			wbPos++
		}
	}
	st.hier.Stats.DemandDataAccesses[0]++
	st.hier.Stats.DemandDataLatency[0] += lat
	if lat > st.l1dLat {
		stall := lat - st.l1dLat
		if !dependent {
			if st.mlpShift >= 0 {
				stall >>= uint(st.mlpShift)
			} else {
				stall /= st.mlp
			}
		}
		st.cycles += stall
		st.stats.LoadStall += stall
	}
	return evPos, wbPos
}
