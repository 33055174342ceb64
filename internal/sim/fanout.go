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
//     not just the decode. Followers never see a trace record: the front
//     alone reads the stream, and each slab of its digest carries an
//     op-flags byte per record beside the events. A group's two slabs
//     keep every follower within one slab of the front.
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
	"sync"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fanQuantum mirrors the system scheduler's quantum: the follower polls
// sampling and stop conditions at the same instruction boundaries as a
// sequential run, so record consumption and sample placement match.
const fanQuantum = uint64(cpu.DefaultQuantum)

// fanDigestBatch is the most records a digest slab holds (see
// fanSlab).
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
	var fr *fanFront // per-run points watch ctx themselves
	if len(digest) > 0 {
		var err error
		if fr, err = startFanDigest(norm, digest, ch); err != nil {
			for _, i := range digest {
				ch <- fanDone{i: i, err: err}
			}
		} else {
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
	collectFan(ctx, fr, ch, grace, pts)
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

// collectFan gathers point outcomes. When ctx ends it aborts the digest
// front fr (nil when the group has none), so the front and followers
// waiting on a slab unwind with the context's taxonomy error, then
// abandons any point still silent after grace.
func collectFan(ctx context.Context, fr *fanFront, ch <-chan fanDone, grace time.Duration, pts []FanPoint) {
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
	if fr != nil {
		fr.abort(ctxError(ctx))
	}
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
			// run, releasing the slabs a wedged follower holds or was
			// sent. The front was aborted above and refills no slab, so a
			// follower that wakes later reads stale, never torn, data.
			for i := range pts {
				if !finished[i] {
					pts[i] = FanPoint{Err: ErrStalled}
					finished[i] = true
					got++
					if fr != nil {
						fr.abandon(i)
					}
				}
			}
		}
	}
}

// runFanSolo runs one point the digest executor cannot take as a plain
// per-run simulation, behind the same worker chaos sites as a follower
// (fault.Worker), so `make chaos` exercises a panicking, slow or hung
// point inside a live group.
func runFanSolo(ctx context.Context, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	fault.Worker()
	return RunContext(ctx, cfg)
}

// ---------------------------------------------------------------------
// Digest executor
// ---------------------------------------------------------------------

// fanSlab is one sealed run of the front's digest: an op-flags byte per
// retired record, the below-L2 events those records caused (each
// event's Instr counts from the slab's first record) and the L2
// writeback victims the events carry. A group builds two slabs with the
// fixed capacities below; the front fills one while followers price the
// other, and refills a slab only once every follower it was sent to has
// released it, so appends never outgrow a slab and it is never copied.
type fanSlab struct {
	ops    []uint8
	events []cache.FrontEvent
	wbs    []uint64
	refs   int // followers yet to release the slab; guarded by fanFront.mu
}

// Digest slab capacities. A slab seals before a core batch could
// overflow it, and an empty slab must hold one 256-record core batch at
// its worst: a fetch event plus three data events per record (1024
// events), each filling the L2 at most twice, once for its own block and
// once for a dirty L1D victim (2048 writebacks). The densest presets
// average 0.49 events and 0.12 writebacks per record, so their slabs
// seal at about 2.2k records; sparse presets' slabs reach
// fanDigestBatch.
const (
	slabEvents = 1280
	slabWBs    = 2048
)

// Op flags: a slab's per-record byte, everything a follower needs of
// the record itself.
const (
	opBranch uint8 = 1 << iota
	opMispredict
	opLoad0
	opLoad1
	opDependent
	opStore
)

func opFlags(r *trace.Record) uint8 {
	var f uint8
	if r.IsBranch {
		f |= opBranch
	}
	if r.Load0 != 0 {
		f |= opLoad0
		if r.Dependent {
			f |= opDependent
		}
	}
	if r.Load1 != 0 {
		f |= opLoad1
	}
	if r.Store != 0 {
		f |= opStore
	}
	return f
}

// digestBound is the most events and writebacks the records of b can
// add to a slab (see slabEvents).
func digestBound(b []trace.Record) (events, wbs int) {
	for i := range b {
		events++
		if b[i].Load0 != 0 {
			events++
		}
		if b[i].Load1 != 0 {
			events++
		}
		if b[i].Store != 0 {
			events++
		}
	}
	return events, 2 * events
}

// mispTap wraps the front's branch predictor and flags every mispredict
// on its record in the slab being filled, so followers replay outcomes
// without running a predictor of their own.
type mispTap struct {
	inner branch.Predictor
	fr    *fanFront
	pred  bool
}

func (t *mispTap) Name() string { return t.inner.Name() }

func (t *mispTap) Predict(pc uint64) bool {
	t.pred = t.inner.Predict(pc)
	return t.pred
}

func (t *mispTap) Update(pc uint64, taken bool) {
	t.inner.Update(pc, taken)
	if t.pred != taken {
		fr := t.fr
		fr.slab.ops[*fr.instrs-fr.base] |= opMispredict
	}
}

// fanSeat is one follower's side of the slab hand-off, guarded by
// fanFront.mu.
type fanSeat struct {
	inbox chan *fanSlab // capacity 2: a seat never has more than both slabs
	held  *fanSlab      // the slab the follower is pricing
	gone  bool          // exited or abandoned: sent nothing more
}

// fanFront is the digest executor's shared front end and the owner of
// its slabs.
type fanFront struct {
	src    trace.Source
	cap    *cache.FrontCapture
	instrs *uint64          // the front core's retired-instruction count
	hier   *cache.Hierarchy // exposed to followers after the final slab

	slabs [2]fanSlab
	free  chan *fanSlab // slabs every follower has released; holds both
	slab  *fanSlab      // the slab being filled; nil between slabs
	base  uint64        // instruction index of slab.ops[0]

	// The core batch the front read last: its records (the core's own
	// buffer, which nothing writes until the next NextBatch refills it),
	// their offset in the slab and the slab's event count before them.
	last    []trace.Record
	lastOff uint32
	lastEv  int

	points []int // the group member each seat serves
	mu     sync.Mutex
	seats  []fanSeat
	err    error // the front's outcome, set before the inboxes close

	abortOnce sync.Once
	abortErr  error         // set before abortCh closes
	abortCh   chan struct{} // closed by abort
	done      chan struct{} // closed when the front goroutine has finished
}

// frontFeed is the front core's trace reader. Each NextBatch first
// settles the previous batch, all of whose records have retired by then,
// then refills the core's own buffer from the source and writes the new
// records' op flags into the slab being filled, sealing that slab first
// when it lacks room for them. It deliberately does not implement
// trace.Rewinder: the primary streams are unbounded, so a rewind request
// means the stream broke and the front must stop.
type frontFeed struct {
	fr *fanFront
}

func (f *frontFeed) NextBatch(recs []trace.Record) (int, error) {
	fr := f.fr
	// The refill below overwrites the previous batch's records.
	fr.resolveLoads()
	n, err := fr.src.NextBatch(recs)
	if n == 0 {
		return 0, err
	}
	b := recs[:n]
	ev, wb := digestBound(b)
	if s := fr.slab; s == nil || len(s.ops)+n > cap(s.ops) ||
		len(fr.cap.Events)+ev > cap(fr.cap.Events) || len(fr.cap.WBAddrs)+wb > cap(fr.cap.WBAddrs) {
		if s != nil {
			if err := fr.seal(len(s.ops)); err != nil {
				return 0, err
			}
		}
		if err := fr.acquire(); err != nil {
			return 0, err
		}
	}
	s := fr.slab
	fr.last, fr.lastOff, fr.lastEv = b, uint32(len(s.ops)), len(fr.cap.Events)
	for i := range b {
		s.ops = append(s.ops, opFlags(&b[i]))
	}
	return n, nil
}

// Next is never called: a core reads a BatchReader in batches.
func (f *frontFeed) Next(*trace.Record) error {
	return errors.New("sim: the fan front reads whole batches")
}

// resolveLoads marks each Load event of the last core batch with the
// operand that issued it. A record's loads issue Load0 first, so its
// first Load event is Load0's exactly when the address matches Load0,
// and a second one is Load1's; equal operand addresses resolve to Load0
// first, as a follower matching on addresses would.
func (fr *fanFront) resolveLoads() {
	if fr.last == nil {
		return
	}
	prev := ^uint32(0)
	evs := fr.cap.Events[fr.lastEv:]
	for i := range evs {
		e := &evs[i]
		if e.Kind != cache.Load {
			continue
		}
		e.Load1 = e.Instr == prev || e.Addr != fr.last[e.Instr-fr.lastOff].Load0
		prev = e.Instr
	}
	fr.last = nil
}

// acquire makes a released slab the one being filled, waiting for the
// followers to release one when both are out. The collector's abort
// wakes it.
func (fr *fanFront) acquire() error {
	var s *fanSlab
	select {
	case <-fr.abortCh:
		return fr.abortErr
	default:
	}
	select {
	case s = <-fr.free:
	case <-fr.abortCh:
		return fr.abortErr
	}
	s.ops = s.ops[:0]
	fr.cap.Events = s.events[:0]
	fr.cap.WBAddrs = s.wbs[:0]
	fr.cap.StartBatch()
	fr.slab, fr.base = s, *fr.instrs
	return nil
}

// seal cuts the slab being filled at its first n records, all retired,
// and sends it to every live follower.
func (fr *fanFront) seal(n int) error {
	s := fr.slab
	fr.slab = nil
	s.ops = s.ops[:n]
	s.events, s.wbs = fr.cap.Events, fr.cap.WBAddrs
	fr.mu.Lock()
	for j := range fr.seats {
		if st := &fr.seats[j]; !st.gone {
			// Never blocks: the seat holds at most the other slab.
			st.inbox <- s
			s.refs++
		}
	}
	live := s.refs
	fr.mu.Unlock()
	if live == 0 {
		fr.free <- s
		return errFanAborted
	}
	return nil
}

// end closes every inbox after recording the front's outcome and hands
// back a slab it was still filling.
func (fr *fanFront) end(err error) {
	if s := fr.slab; s != nil {
		fr.slab = nil
		fr.free <- s
	}
	fr.mu.Lock()
	fr.err = err
	for j := range fr.seats {
		close(fr.seats[j].inbox)
	}
	fr.mu.Unlock()
}

// take releases the slab seat j priced last and returns the next one:
// the front's error or errFanAborted once the inbox is closed and empty,
// the abort error once the collector aborted.
func (fr *fanFront) take(j int) (*fanSlab, error) {
	st := &fr.seats[j]
	fr.mu.Lock()
	fr.dropLocked(st.held)
	st.held = nil
	fr.mu.Unlock()
	select {
	case <-fr.abortCh:
		return nil, fr.abortErr
	default:
	}
	var s *fanSlab
	var ok bool
	select {
	case s, ok = <-st.inbox:
	case <-fr.abortCh:
		return nil, fr.abortErr
	}
	if !ok {
		if fr.err != nil {
			return nil, fr.err
		}
		return nil, errFanAborted
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if st.gone {
		// Abandoned while receiving: leave released the rest.
		fr.dropLocked(s)
		return nil, ErrStalled
	}
	st.held = s
	return s, nil
}

// leave takes seat j out of the hand-off and releases every slab it
// holds or was sent. Holding mu orders it against seal's sends. A
// follower calls it as it exits; the collector calls it for a follower
// it abandons, which it does only after aborting the front, so a
// released slab is never refilled under a wedged reader. Idempotent.
func (fr *fanFront) leave(j int) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	st := &fr.seats[j]
	if st.gone {
		return
	}
	st.gone = true
	fr.dropLocked(st.held)
	st.held = nil
	for {
		select {
		case s, ok := <-st.inbox:
			if !ok {
				return
			}
			fr.dropLocked(s)
		default:
			return
		}
	}
}

// abandon is leave for the seat serving group member i, if any.
func (fr *fanFront) abandon(i int) {
	for j, p := range fr.points {
		if p == i {
			fr.leave(j)
		}
	}
}

// dropLocked releases one follower's hold on s, handing s back to the
// front with the last. The send never blocks: free has room for both
// slabs. Callers hold mu.
func (fr *fanFront) dropLocked(s *fanSlab) {
	if s == nil {
		return
	}
	if s.refs--; s.refs == 0 {
		fr.free <- s
	}
}

// abort stops the group: the front's next slab request and every
// follower's next take return err.
func (fr *fanFront) abort(err error) {
	fr.abortOnce.Do(func() {
		fr.abortErr = err
		close(fr.abortCh)
	})
}

// run executes the capture pass: a real core against a capture-mode
// hierarchy, mirroring RunContext's warm-up/ROI structure exactly so the
// front consumes the same quantum-aligned record count as a sequential
// run of any group member. The final slab is cut at its last retired
// instruction; records the core read past it are never sent.
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
	core := cpu.NewCore(0, cpuCfg, &frontFeed{fr: fr}, hier, &mispTap{inner: bp, fr: fr})
	defer core.Release()
	fr.instrs = &core.Instrs
	if err := hier.SetFrontCapture(fr.cap, &core.Instrs); err != nil {
		return err
	}
	fr.hier = hier
	sys := cpu.NewSystem(core)
	sys.RestartFinished = true
	if err := sys.Run(func(*cpu.Core) bool { return core.Instrs >= cfg.WarmupInstrs }); err != nil {
		return err
	}
	if core.Instrs < cfg.WarmupInstrs {
		return io.ErrUnexpectedEOF
	}
	hier.ResetStats()
	core.ResetStats()
	roiEnd := core.Instrs + cfg.ROIInstrs
	if err := sys.Run(func(*cpu.Core) bool { return core.Instrs >= roiEnd }); err != nil {
		return err
	}
	if core.Instrs < roiEnd {
		return io.ErrUnexpectedEOF
	}
	fr.resolveLoads()
	return fr.seal(int(core.Instrs - fr.base))
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
// reporting its outcome on out. It returns the front so the collector
// can abort the group and release abandoned followers' slabs.
func startFanDigest(norm []Config, idx []int, out chan<- fanDone) (*fanFront, error) {
	start := time.Now()
	cfg0 := norm[idx[0]]
	spec, err := specFor(cfg0.Workload, cfg0.WorkloadSpec)
	if err != nil {
		return nil, err
	}
	// The front drives the digest members' only decode, so under chaos
	// the per-run trace.read site interposes on the shared stream: a
	// fired fault fails every digest member, which then retry
	// sequentially.
	src, err := primarySource(cfg0, spec)
	if err != nil {
		return nil, err
	}
	cpuCfg := primaryCPU(cfg0, spec)

	n := len(idx)
	fr := &fanFront{
		src:     src,
		cap:     &cache.FrontCapture{},
		points:  idx,
		seats:   make([]fanSeat, n),
		abortCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	fr.free = make(chan *fanSlab, len(fr.slabs))
	for i := range fr.slabs {
		s := &fr.slabs[i]
		s.ops = make([]uint8, 0, fanDigestBatch)
		s.events = make([]cache.FrontEvent, 0, slabEvents)
		s.wbs = make([]uint64, 0, slabWBs)
		fr.free <- s
	}
	for j := range fr.seats {
		fr.seats[j].inbox = make(chan *fanSlab, len(fr.slabs))
	}

	go func() {
		var ferr error
		defer func() {
			if r := recover(); r != nil {
				ferr = &PanicError{Value: r, Stack: debug.Stack()}
			}
			fr.end(ferr)
			close(fr.done)
		}()
		ferr = fr.run(cfg0, cpuCfg)
	}()

	for j, i := range idx {
		go func(j, i int) {
			res, err := runFanFollower(norm[i], cpuCfg, fr, j, start)
			out <- fanDone{i: i, res: res, err: err}
		}(j, i)
	}
	return fr, nil
}

// fanFollower is one point's private state in the digest executor: the
// point-dependent machine (LLC, DRAM, engine; the hierarchy's private
// levels are released once their hit latencies are read) plus the
// cpu.Core timing arithmetic replayed over slabs.
type fanFollower struct {
	m    *machine
	hier *cache.Hierarchy // m.hier, kept at hand for the pricing loop

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

	inROI  bool
	roiEnd uint64
	begin  counters // at ROI entry
}

// fanTakeHook, when a test sets it, runs as the follower in seat j of
// fr takes its k'th slab; an error or panic from it fails the follower
// there.
var fanTakeHook func(fr *fanFront, j, k int) error

// runFanFollower builds and drives the follower in seat j to completion.
func runFanFollower(cfg Config, cpuCfg cpu.Config, fr *fanFront, j int, start time.Time) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
		fr.leave(j)
	}()
	fault.Worker()

	// The follower builds the same machine as a sequential run of its
	// point; its primary core is the pricing loop below, whose counters
	// the machine reads.
	m, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	defer m.release()
	st := &fanFollower{m: m, hier: m.hier}
	m.instrs, m.cycles, m.cstats = &st.instrs, &st.cycles, &st.stats

	rc := cpuCfg.Resolved()
	st.width = rc.Width
	st.penalty = rc.MispredictPenalty
	st.mlp = uint64(rc.MLP)
	st.mlpShift = -1
	if mlp := rc.MLP; mlp&(mlp-1) == 0 {
		st.mlpShift = bits.TrailingZeros(uint(mlp))
	}
	st.l1iLat = m.hier.L1I(0).HitLatency()
	st.l1dLat = m.hier.L1D(0).HitLatency()
	st.l2Lat = m.hier.L2(0).HitLatency()
	// The slabs carry the front's L1/L2 outcomes; a follower only ever
	// descends below the L2, so it keeps just its LLC.
	m.hier.ReleasePrivate()

	for k := 0; ; k++ {
		s, err := fr.take(j)
		if err == nil && fanTakeHook != nil {
			err = fanTakeHook(fr, j, k)
		}
		if err != nil {
			return nil, err
		}
		done, err := st.runBatch(s)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
	}
	st.smp.maybeSample(&st.samples)

	// The private-level metrics come from the group's shared front,
	// which followers may read only now, after the final slab. The
	// follower's own private levels were never touched, so begin holds
	// zeros for them.
	res = &Result{Config: resultConfig(cfg), Samples: st.samples}
	m.front = fr.hier
	m.finish(res, st.begin)
	res.WallTime = time.Since(start)
	return res, nil
}

// enterROI mirrors RunContext's end-of-warm-up transition: reset event
// counters (clocks keep running), pin the ROI window, arm the sampler.
func (st *fanFollower) enterROI() {
	st.m.resetStats()
	st.begin = st.m.snap()
	st.roiEnd = st.instrs + st.m.cfg.ROIInstrs
	st.smp = newSampler(st.m)
	st.inROI = true
}

// runBatch prices one slab. The arithmetic is cpu.Core.retire/loadStall
// verbatim, with the record read from its op flags and the front-end
// outcomes (which accesses left the L1, their L2 victims, which branches
// mispredicted) read from the slab instead of recomputed. Event matching
// is cursor-order: the front emits events in issue order (ifetch, Load0,
// Load1, store) stamped with the instruction's offset in the slab, which
// is its index k in ops.
func (st *fanFollower) runBatch(s *fanSlab) (bool, error) {
	ev, wbs := s.events, s.wbs
	evPos, wbPos := 0, 0
	for k, op := range s.ops {
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

		if op&opBranch != 0 {
			st.stats.Branches++
			if op&opMispredict != 0 {
				st.stats.Mispredicts++
				st.cycles += st.penalty
			}
		}

		if op&opLoad0 != 0 {
			st.stats.Loads++
			evPos, wbPos = st.load(false, op&opDependent != 0, off, ev, evPos, wbs, wbPos)
		}
		if op&opLoad1 != 0 {
			st.stats.Loads++
			evPos, wbPos = st.load(true, false, off, ev, evPos, wbs, wbPos)
		}

		if op&opStore != 0 {
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
				if st.instrs >= st.m.cfg.WarmupInstrs {
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
	if evPos != len(ev) || wbPos != len(wbs) {
		return false, fmt.Errorf("sim: fan digest mismatch (events %d/%d, writebacks %d/%d)",
			evPos, len(ev), wbPos, len(wbs))
	}
	return false, nil
}

// load prices one demand load, by the Load1 operand when second is set:
// cpu.Core.loadStall with the hierarchy outcome read from the slab.
// Loads with no event settled at the L1D hit latency (plain hit or
// repeat-hit fast path — both price and count identically).
func (st *fanFollower) load(second, dependent bool, off uint32, ev []cache.FrontEvent, evPos int, wbs []uint64, wbPos int) (int, int) {
	lat := st.l1dLat
	if evPos < len(ev) && ev[evPos].Instr == off && ev[evPos].Kind == cache.Load && ev[evPos].Load1 == second {
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
