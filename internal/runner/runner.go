// Package runner is the fault-tolerant campaign orchestrator for large
// simulation batches (the paper's 49 workloads × 12 P_Induce points plus
// baselines). It layers four guarantees over internal/sim:
//
//   - cancellation: one context covers the whole campaign; SIGINT or an
//     explicit cancel stops scheduling, interrupts in-flight runs, and
//     surfaces every unfinished config as an ErrCanceled failure.
//   - isolation: a run that panics or fails is captured as a typed
//     *RunError (config, cause, stack, wall time, attempt count) and the
//     rest of the campaign keeps going.
//   - retry: runs that die for seed-dependent reasons (panic, timeout)
//     are retried up to Options.Retries times with a deterministically
//     perturbed seed.
//   - resume: with a result store (Options.Store, internal/store), every
//     computed result is stored — one write, one fsync — under a
//     deterministic config hash before anything observes it; rerunning
//     the same campaign against the same store takes every stored result
//     as a hit, so a crashed or interrupted sweep loses no finished work.
//     The store is the campaign's only durable record.
//
// RunAll plans before it runs: a pure planner (plan.go) assigns every
// config one executor — store hit, another campaign's flight, sampled
// candidate, fan-out group or the full per-run path — and the campaign
// executes the plan's stages in a fixed order through one dispatcher,
// recording every success through one completion path.
package runner

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/phase"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options tunes an Orchestrator. The zero value runs with GOMAXPROCS
// workers, no per-run deadline, no retries and no result store: every
// config runs once, in parallel, and a failed or panicking run becomes
// a structured RunError while the rest complete.
type Options struct {
	// Workers caps concurrent simulations; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each run's wall-clock time; 0 disables it. A run
	// over budget fails with ErrTimeout (and may be retried).
	Timeout time.Duration
	// Retries is how many additional attempts a retryable failure
	// (panic, timeout, stall) gets. Each retry perturbs the config seed
	// with PerturbSeed so a deterministically crashing run can escape.
	Retries int
	// Backoff, when positive, is the base delay inserted before retry
	// attempt n: Backoff << (n-1), capped at 16×Backoff, with a
	// deterministic ±25% jitter derived from the config seed and attempt
	// number so resumed campaigns pause identically while concurrent
	// retries still decorrelate. 0 retries immediately (the previous
	// behaviour).
	Backoff time.Duration
	// StallGrace arms the stuck-run watchdog: a run whose context has
	// expired gets this much longer to return on its own before the
	// orchestrator abandons the wedged goroutine and fails the attempt
	// with sim.ErrStalled (retryable, counted in expvar). 0 disables the
	// watchdog — a run that ignores its context then blocks its worker
	// forever. The watchdog only triggers on an expired context, so a
	// hang under neither Timeout nor cancellation is undetectable.
	StallGrace time.Duration
	// Logf receives progress and failure lines (log.Printf-shaped);
	// nil means silent.
	Logf func(format string, args ...any)
	// Progress, when positive, emits a live heartbeat snapshot
	// (completed/failed/retried runs, runs/sec, ETA, record failures)
	// through Logf on this period. Independent of the period, every
	// campaign's progress is in the campaigns group of the metrics tree
	// (expvar "pinte", served by the prof package's -debug endpoint).
	Progress time.Duration
	// Streams, when non-nil, is stamped onto every config that does not
	// already carry a stream provider: the campaign's record/replay
	// cache (internal/replay). All workers then share each workload's
	// recorded stream — it is recorded by whichever run needs it first
	// and replayed read-only by the rest. Results are byte-identical
	// with or without it (the provider is excluded from config hashing).
	Streams trace.SourceProvider
	// Fanout enables sweep fan-out: the planner groups the configs that
	// share a primary record stream (sim.FanGroupKey), and each group
	// runs through sim.RunFanGroup before the per-run stage; the group's
	// digest-eligible points share one trace decode and front-end pass,
	// and the rest run per-run inside the group. Results are
	// byte-identical to the sequential path; points that fail inside a
	// group fall back to it, where the normal retry policy applies.
	// Singleton groups, and groups a member of which is stored or in
	// flight elsewhere, always run per-run.
	Fanout bool
	// FanMaxGroup caps a fan-out group's size; oversized groups are
	// split into chunks of at most this many points. The campaign
	// service sets it on campaigns admitted under load shedding — a
	// smaller group costs more decode passes but a smaller peak
	// footprint — before refusing work outright. 0 means unlimited;
	// values below 2 are treated as unlimited (a 1-point "group" is
	// just the per-run path).
	FanMaxGroup int
	// Sample enables phase-aware representative sampling: before the
	// per-run stage, every distinct sample-eligible
	// (workload, budgets, seed) projection the planner found among the
	// configs still to run gets one telemetry-only Isolation profile, the profile is
	// clustered into a phase.Plan (internal/phase), and each member run
	// then simulates only the plan's representative windows, reporting
	// extrapolated metrics with error bounds in Result.Sampled. Configs
	// that are not sample-eligible, members of a failed profile, and
	// sampled attempts that fail at run time all fall back to the
	// full-ROI path. Mutually exclusive with Fanout (fan groups simulate
	// the full ROI); sampling wins when both are set. A sampled result is
	// stored under its own key (SampledKey), so a rerun of a sampled
	// campaign resumes it while a full-fidelity campaign never reads it.
	Sample bool
	// Pool, when non-nil, executes the campaign on a shared
	// multi-campaign worker pool instead of workers owned by this
	// orchestrator: every run (and every profile and fan-out group)
	// becomes one task on a weighted queue tagged Tenant/Weight, so
	// concurrent campaigns interleave under stride fair scheduling and
	// per-tenant concurrency caps. Workers is ignored in pool mode. Runs
	// shed by a draining pool are recorded as ErrCanceled, leaving them
	// unstored for the next resume; a shed profile leaves its members
	// unsampled and a shed group's points run per-run.
	Pool *Pool
	// Tenant tags the campaign's pool queue for per-tenant caps;
	// Weight is its fair-share weight (minimum 1). Both are ignored
	// without Pool.
	Tenant string
	Weight int
	// CampaignID names the campaign's live progress in the campaigns
	// group of the metrics tree. The service gives each campaign its
	// own ID and unregisters it when the campaign is finalized; the
	// empty ID is one slot, so each campaign without an ID replaces the
	// last one there (the command-line tools' shape).
	CampaignID string
	// OnResult observes every completed result: admission-time store
	// hits first (in input order), then completions as they happen.
	// fromStore marks a result served from the store — a hit or another
	// campaign's shared computation — rather than computed by this
	// campaign; a computed result is already stored when OnResult sees
	// it. Called without internal locks held; must be safe for
	// concurrent use.
	OnResult func(index int, key string, res *sim.Result, fromStore bool)
	// Store, when non-nil, is the campaign's durable record: the
	// cross-campaign content-addressed result store (internal/store).
	// Configs already stored under the current simulator fingerprint
	// when the campaign is admitted are satisfied without running —
	// which is how an interrupted campaign resumes — and configs another
	// campaign is computing right now are collapsed onto that
	// computation via single-flight (no pool worker burned on a
	// duplicate). Every result this campaign computes is stored (under
	// RecordKey) before OnResult sees it, then a full-fidelity one is
	// published to any campaign waiting on it; a store hit writes
	// nothing. Sampled attempts bypass single-flight. A failed store
	// append keeps the result and is reported as a record-only failure;
	// a failed read recomputes.
	Store *store.Store
}

// RunError describes one failed run of a campaign.
type RunError struct {
	// Index is the config's position in the RunAll input.
	Index int
	// Config is the original (unperturbed) configuration.
	Config sim.Config
	// Key is the config's ConfigKey.
	Key string
	// Err is the final attempt's failure, wrapping one of the sim
	// taxonomy sentinels (ErrBadConfig, ErrTimeout, ErrPanic,
	// ErrCanceled).
	Err error
	// Stack is the recovered goroutine stack when Err wraps ErrPanic.
	Stack string
	// WallTime spans all attempts; Attempts counts them.
	WallTime time.Duration
	Attempts int
	// RecordOnly marks a failure where the simulation itself succeeded
	// — its result is present in Outcome.Results — but storing it
	// failed, so a rerun would compute it again. Callers should treat
	// these as warnings about the durable record, not as failed runs.
	RecordOnly bool
}

func (e *RunError) Error() string {
	kind := "run"
	if e.RecordOnly {
		kind = "record-only failure for run"
	}
	return fmt.Sprintf("%s %d (%s %s p=%g seed=%d): %v [attempts=%d wall=%s]",
		kind, e.Index, e.Config.Mode, e.Config.Workload, e.Config.PInduce,
		e.Config.Seed, e.Err, e.Attempts, e.WallTime.Round(time.Millisecond))
}

func (e *RunError) Unwrap() error { return e.Err }

// Outcome is what a campaign produced: successes in input order (nil
// where a run failed), plus the structured failure list.
type Outcome struct {
	// Results is parallel to the RunAll input; failed or canceled
	// configs leave a nil slot.
	Results []*sim.Result
	// Failures holds one RunError per failed config, ordered by Index.
	Failures []*RunError
	// FromStore counts configs satisfied from the result store without
	// running (a stored hit, resumed work included, or a shared
	// in-flight computation); Ran counts configs actually executed.
	FromStore int
	Ran       int
}

// Err joins the failures into one error, or returns nil for a fully
// successful campaign.
func (o *Outcome) Err() error {
	if len(o.Failures) == 0 {
		return nil
	}
	errs := make([]error, len(o.Failures))
	for i, f := range o.Failures {
		errs[i] = f
	}
	return errors.Join(errs...)
}

// HardFailures returns the failures whose runs actually produced no
// result, excluding record-only failures (result kept, store append
// lost). Exit-code logic should key off this list: a campaign whose
// every run completed is not a failed campaign just because a store
// write was.
func (o *Outcome) HardFailures() []*RunError { return o.failures(false) }

// RecordFailures returns the record-only failures.
func (o *Outcome) RecordFailures() []*RunError { return o.failures(true) }

func (o *Outcome) failures(recordOnly bool) []*RunError {
	var fs []*RunError
	for _, f := range o.Failures {
		if f.RecordOnly == recordOnly {
			fs = append(fs, f)
		}
	}
	return fs
}

// Orchestrator executes campaigns under one Options set. RunAll keeps
// its per-campaign state in a campaign of its own, so one orchestrator
// may run several campaigns at once.
type Orchestrator struct {
	opts Options
	// run executes one attempt; tests substitute it to inject panics
	// and hangs. nil means sim.RunContext. Panics are recovered by the
	// orchestrator regardless of the function used.
	run func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
	// sleep waits out a backoff delay; tests substitute a fake clock.
	sleep func(ctx context.Context, d time.Duration)
	// analyze clusters a profile run into a sampling plan; tests
	// substitute it to hand the executor a poisoned plan.
	analyze func(profile *sim.Result, seed uint64) (*phase.Plan, error)
}

// New builds an orchestrator.
func New(opts Options) *Orchestrator {
	return &Orchestrator{opts: opts, sleep: ctxSleep, analyze: analyzeProfile}
}

func (o *Orchestrator) logf(format string, args ...any) {
	if o.opts.Logf != nil {
		o.opts.Logf(format, args...)
	}
}

// ConfigKey returns the deterministic key of cfg: the SHA-256 of the
// canonical JSON of the normalized config (every default resolved). Two
// configs that would produce identical results hash identically, so a
// rerun recognises its stored runs even across processes and flag
// re-orderings.
func ConfigKey(cfg sim.Config) (string, error) {
	b, err := json.Marshal(cfg.Normalized())
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// SampledKey is the store key of a phase-sampled result of the config
// keyed k: a domain-separated hash of k. Its "s" prefix is not a hex
// digit, so no ConfigKey can equal it, and a sampled approximation is
// never served where a full-fidelity result is asked for.
func SampledKey(k string) string {
	sum := sha256.Sum256([]byte("pinte.sampled\x00" + k))
	return "s" + hex.EncodeToString(sum[:])
}

// RecordKey is the store key a result of the config keyed k is recorded
// under: SampledKey(k) for a phase-sampled result, k otherwise.
func RecordKey(k string, res *sim.Result) string {
	if res.Sampled != nil {
		return SampledKey(k)
	}
	return k
}

// RecordKeys lists the store keys a campaign finds cfg's result under
// (cfg keyed k), best first: k, then — in a sampled campaign, for a
// sample-eligible config — SampledKey(k). A full-fidelity campaign never
// reads a sampled record.
func RecordKeys(cfg sim.Config, k string, sample bool) []string {
	if sample && sim.SampleEligible(cfg) {
		return []string{k, SampledKey(k)}
	}
	return []string{k}
}

// PerturbSeed derives the seed for retry attempt n (n >= 1) of a run
// whose original seed is seed. The perturbation is deterministic —
// resuming a campaign retries a crashing config through the same seed
// sequence — and attempt 0 always preserves the original seed, so
// successful runs stay bit-identical to an unorchestrated sim.Run.
func PerturbSeed(seed uint64, attempt int) uint64 {
	if attempt == 0 {
		return seed
	}
	// Golden-ratio odd multiplier: distinct, well-mixed seeds per
	// attempt without colliding with neighbouring campaign seeds.
	return seed ^ uint64(attempt)*0x9e3779b97f4a7c15
}

// backoffCap bounds the exponential backoff at this multiple of its base.
const backoffCap = 16

// backoffDelay computes the pause before retry attempt n (n >= 1) of a
// run with the given original seed: base << (n-1), capped at
// backoffCap×base, with a deterministic ±25% jitter so a resumed
// campaign replays the same pauses while concurrent retries of
// different configs decorrelate instead of thundering together.
func backoffDelay(base time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	max := backoffCap * base
	d := base
	// Shift step-wise against the cap so a large attempt count can
	// never overflow the duration into a negative sleep.
	for i := 1; i < attempt && d < max; i++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	// splitmix64 of (seed, attempt) → uniform [0,1) → factor in
	// [0.75, 1.25).
	x := seed ^ uint64(attempt)*0x9e3779b97f4a7c15
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// ctxSleep is the default backoff sleep: d elapses or ctx ends,
// whichever is first.
func ctxSleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// RunAll executes cfgs under ctx and never aborts on a per-run failure:
// it always returns an Outcome covering every config. Per-run failures —
// including cancellation and lost store appends — are reported in
// Outcome.Failures so callers can emit completed rows and exit non-zero;
// the error return is reserved for campaign-level faults, of which there
// are none today, so it is always nil.
//
// A campaign looks up every config in the store, plans each onto one
// executor (plan.go), and executes the plan's stages in order.
func (o *Orchestrator) RunAll(ctx context.Context, cfgs []sim.Config) (*Outcome, error) {
	c := &campaign{
		o: o, ctx: ctx, cfgs: cfgs, keys: make([]string, len(cfgs)),
		out:   &Outcome{Results: make([]*sim.Result, len(cfgs))},
		prior: make([]int, len(cfgs)), plans: make([]*phase.Plan, len(cfgs)),
	}
	c.prog = telemetry.NewProgress(len(cfgs), time.Now())
	telemetry.RegisterCampaign(o.opts.CampaignID, c.prog)
	for i, cfg := range cfgs {
		k, err := ConfigKey(cfg)
		if err != nil {
			c.fail(&RunError{Index: i, Config: cfg,
				Err: fmt.Errorf("%w: unhashable: %v", sim.ErrBadConfig, err)}, false)
			continue
		}
		c.keys[i] = k
	}

	if o.opts.Progress > 0 && o.opts.Logf != nil {
		defer c.heartbeat()()
	}
	if o.opts.Pool != nil {
		c.q = o.opts.Pool.NewQueue(o.opts.Tenant, o.opts.Weight)
		defer c.q.Close()
	}

	// Admission: one store Get per config (counting one hit or miss);
	// a hit's result waits in Results for execute to finish it.
	var admit func(int) executor
	if st := o.opts.Store; st != nil {
		admit = func(i int) executor {
			if res, ok := st.Get(RecordKeys(cfgs[i], c.keys[i], o.opts.Sample)...); ok {
				c.out.Results[i] = res
				return execStore
			}
			if st.InFlight(c.keys[i]) {
				return execFlight
			}
			return execFull
		}
	}
	c.execute(plan(cfgs, c.keys, admit, o.opts, o.run != nil))

	sort.Slice(c.out.Failures, func(a, b int) bool {
		return c.out.Failures[a].Index < c.out.Failures[b].Index
	})
	return c.out, nil
}

// campaign is one RunAll call's state, shared by every stage.
type campaign struct {
	o    *Orchestrator
	ctx  context.Context
	cfgs []sim.Config
	keys []string // "" where ConfigKey failed
	out  *Outcome
	mu   sync.Mutex // guards out once the stages run
	prog *telemetry.Progress
	q    *Queue // the shared pool's queue; nil with private workers
	// prior counts each config's failed fan-out in-group attempts, so a
	// point that dies inside a group re-enters the per-run retry/backoff
	// ladder at the next rung instead of retrying immediately.
	prior []int
	// plans holds each sampled candidate's plan once its profile ran; a
	// nil slot runs the full ROI.
	plans []*phase.Plan
}

// heartbeat pushes a live progress snapshot through Logf every Progress
// period until the returned stop, which logs the final one.
func (c *campaign) heartbeat() (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(c.o.opts.Progress)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				c.o.logf("%s", c.prog.Snapshot(time.Now()))
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		c.o.logf("%s", c.prog.Snapshot(time.Now()))
	}
}

// execute runs a plan's stages in order: admission-time store hits, the
// sampling profiles, the fan-out groups, and last the per-run points
// alongside the watchers of configs in flight elsewhere. Each stage's
// shed tasks degrade rather than fail: an unprofiled candidate runs the
// full ROI, a shed group's points join the per-run stage at rung 0, and
// only a shed per-run point fails, as ErrCanceled.
func (c *campaign) execute(e []entry) {
	var flights, perRun []int
	hits, pending := 0, 0
	for i, en := range e {
		switch en.exec {
		case execStore:
			hits++
			c.finish(i, c.out.Results[i], 0, store.ViaHit)
		case execFlight:
			flights = append(flights, i)
		case execFull, execSampled:
			perRun = append(perRun, i)
			pending++
		case execFan:
			pending++
		}
	}
	if hits > 0 || len(flights) > 0 {
		c.o.logf("store: %d of %d pending runs served from %s (%d more in flight elsewhere)",
			hits, hits+len(flights)+pending, c.o.opts.Store.FingerprintID(), len(flights))
	}
	if c.o.opts.Sample && c.o.opts.Fanout && c.o.run == nil {
		c.o.logf("sampling and fan-out both requested; sampling wins (fan groups run the full simulator)")
	}

	workers := c.o.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pg := groups(e, execSampled)
	c.dispatch(len(pg), workers, func(g int, shed bool) {
		if !shed {
			c.profile(pg[g])
		}
	})

	// Fan groups run one at a time without a shared pool, so the
	// campaign's peak footprint stays at one group (fanout.go).
	fg := groups(e, execFan)
	var fmu sync.Mutex
	c.dispatch(len(fg), 1, func(g int, shed bool) {
		fallback := fg[g]
		if !shed {
			fallback = c.runFanGroup(g, fg[g])
		}
		fmu.Lock()
		perRun = append(perRun, fallback...)
		fmu.Unlock()
	})
	sort.Ints(perRun)

	// Watchers ride on plain goroutines: the store's single-flight wait
	// (or the finished result, or a new leadership if the other
	// campaign's attempt died) needs no worker of this campaign or pool.
	var watchers sync.WaitGroup
	for _, i := range flights {
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			c.runPoint(i, false)
		}()
	}
	c.dispatch(len(perRun), workers, func(k int, shed bool) { c.runPoint(perRun[k], shed) })
	watchers.Wait()
}

// dispatch runs task(k) for every k in [0, n) and returns when all have
// returned. On a shared pool each is one task on the campaign's weighted
// queue; otherwise at most limit run at once on workers of this
// campaign. A task runs with shed set when the pool shed it or the
// campaign's context ended before it started, and must then only
// account for itself.
func (c *campaign) dispatch(n, limit int, task func(k int, shed bool)) {
	var wg sync.WaitGroup
	wg.Add(n)
	run := func(k int, shed bool) {
		defer wg.Done()
		task(k, shed || c.ctx.Err() != nil)
	}
	if c.q != nil {
		for k := 0; k < n; k++ {
			c.q.Submit(func(shed bool) { run(k, shed) })
		}
		wg.Wait()
		return
	}
	next := make(chan int)
	for w := 0; w < min(limit, n); w++ {
		go func() {
			for k := range next {
				run(k, false)
			}
		}()
	}
	k := 0
send:
	for ; k < n; k++ {
		select {
		case next <- k:
		case <-c.ctx.Done():
			break send
		}
	}
	close(next)
	for ; k < n; k++ {
		run(k, true)
	}
	wg.Wait()
}

// runPoint executes one config on the per-run path: the retry ladder,
// under the store's single-flight when the config runs at full
// fidelity, so a duplicate of another campaign's computation waits for
// it instead of computing. Sampled attempts bypass single-flight —
// approximations are never shared. A shed point fails as ErrCanceled,
// which leaves it unstored for the next resume.
func (c *campaign) runPoint(i int, shed bool) {
	if shed {
		c.fail(c.canceled(i), false)
		return
	}
	compute := func() (*sim.Result, error) {
		res, attempts, rerr := c.runOne(i)
		if rerr != nil {
			c.fail(rerr, true)
			return nil, rerr.Err
		}
		c.finish(i, res, attempts, store.ViaCompute)
		return res, nil
	}
	st := c.o.opts.Store
	if st == nil || c.plans[i] != nil {
		compute()
		return
	}
	res, via, err := st.Do(c.ctx, c.keys[i], compute)
	switch {
	case via == store.ViaCompute:
		// compute recorded its own outcome
	case err != nil:
		// Canceled while waiting on another campaign's computation.
		c.fail(c.canceled(i), false)
	default:
		c.finish(i, res, 0, via)
	}
}

// finish records one success, whichever executor produced it. A result
// this campaign computed is stored first — one write and one fsync,
// under RecordKey — so it is durable before anything observes it; a
// failed Put becomes a record-only RunError, since the run itself
// succeeded. Then the result, the Ran/FromStore count and progress are
// set, OnResult sees it, and a full-fidelity result is published to any
// campaign waiting on its flight. A store hit writes nothing.
func (c *campaign) finish(i int, res *sim.Result, attempts int, via store.Via) {
	st := c.o.opts.Store
	computed := via == store.ViaCompute
	if computed && st != nil {
		if err := st.Put(RecordKey(c.keys[i], res), res); err != nil {
			c.prog.RecordError()
			c.fail(&RunError{
				Index: i, Config: c.cfgs[i], Key: c.keys[i],
				Attempts: attempts, RecordOnly: true,
				Err: fmt.Errorf("storing result: %w", err),
			}, false)
		}
	}
	c.mu.Lock()
	c.out.Results[i] = res
	if computed {
		c.out.Ran++
	} else {
		c.out.FromStore++
	}
	c.mu.Unlock()
	c.prog.RunCompleted()
	if c.o.opts.OnResult != nil {
		c.o.opts.OnResult(i, c.keys[i], res, !computed)
	}
	if computed && res.Sampled == nil {
		st.Publish(c.keys[i], res)
	}
}

// canceled is config i's failure when the campaign ends before it runs.
func (c *campaign) canceled(i int) *RunError {
	return &RunError{Index: i, Config: c.cfgs[i], Key: c.keys[i], Err: sim.ErrCanceled}
}

// fail records one failure; ran counts it as executed by this campaign.
func (c *campaign) fail(re *RunError, ran bool) {
	c.mu.Lock()
	if ran {
		c.out.Ran++
	}
	c.out.Failures = append(c.out.Failures, re)
	c.mu.Unlock()
	if !re.RecordOnly {
		c.prog.RunFailed()
	}
}

// runOne executes one config with the per-run deadline, panic capture
// and bounded seed-perturbation retry policy applied. prior counts
// failed attempts already consumed elsewhere (a fan-out in-group
// failure): they advance the backoff ladder and the reported attempt
// count, but not the seed ladder — the first per-run attempt keeps the
// original seed, so a clean fallback stays byte-identical to a
// sequential run. It returns the total attempt count alongside the
// result so record-only failures can carry it.
func (c *campaign) runOne(index int) (*sim.Result, int, *RunError) {
	o, ctx, cfg, prior := c.o, c.ctx, c.cfgs[index], c.prior[index]
	runFn := o.run
	if runFn == nil {
		runFn = sim.RunContext
	}
	if fault.Enabled() {
		// Chaos-mode worker faults wrap the real run so an injected panic
		// is recovered by safeCall and an injected wedge is exactly what
		// the watchdog must convert into a typed failure.
		inner := runFn
		runFn = func(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
			fault.Worker()
			return inner(ctx, cfg)
		}
	}
	// plan, when non-nil, runs this config's attempts in phase-sampled
	// mode. A sampled attempt that fails strips the plan and re-runs the
	// same attempt on the full-ROI path — a free retry with the same
	// seed, so sampling can degrade the budget saving but never the
	// campaign's outcome.
	plan := c.plans[index]
	start := time.Now()
	var err error
	attempts := 0
	for attempts <= o.opts.Retries {
		run := cfg
		run.Seed = PerturbSeed(cfg.Seed, attempts)
		if run.Streams == nil {
			run.Streams = o.opts.Streams
		}
		run.Sample = plan
		// ladder is this attempt's rung on the retry/backoff ladder:
		// per-run retries plus any failed in-group fan-out attempt, so
		// a fallback waits out the same backoff a plain retry would.
		ladder := prior + attempts
		if ladder > 0 {
			c.prog.Retried()
			if attempts > 0 {
				o.logf("retry %d/%d for run %d (%s %s): %v; perturbed seed %d",
					attempts, o.opts.Retries, index, cfg.Mode, cfg.Workload, err, run.Seed)
			} else {
				o.logf("run %d (%s %s) re-enters the backoff ladder at rung %d after an in-group failure",
					index, cfg.Mode, cfg.Workload, ladder)
			}
			if d := backoffDelay(o.opts.Backoff, ladder, cfg.Seed); d > 0 {
				o.sleep(ctx, d)
				if ctx.Err() != nil {
					err = sim.ErrCanceled
					break
				}
			}
		}
		attempts++

		rctx := ctx
		cancel := func() {}
		if o.opts.Timeout > 0 {
			rctx, cancel = context.WithTimeout(ctx, o.opts.Timeout)
		}
		var res *sim.Result
		res, err = o.guardedCall(runFn, rctx, run)
		cancel()
		if err == nil {
			return res, prior + attempts, nil
		}
		// Whole-campaign cancellation masquerades as a per-run error;
		// never retry it, and report it under its own sentinel.
		if ctx.Err() != nil {
			err = sim.ErrCanceled
			break
		}
		if plan != nil {
			// First sampled failure — whatever the cause (a poisoned
			// plan, a trace too short for a seek, a chaos fault): strip
			// the plan and repeat this attempt on the full-ROI path
			// without consuming retry budget.
			telemetry.Phase.SampledFallbacks.Add(1)
			o.logf("run %d (%s %s p=%g): sampled attempt failed (%v); falling back to the full-ROI path",
				index, cfg.Mode, cfg.Workload, cfg.PInduce, err)
			plan = nil
			attempts--
			continue
		}
		if !sim.Retryable(err) {
			break
		}
	}
	re := &RunError{
		Index: index, Config: cfg, Key: c.keys[index], Err: err,
		WallTime: time.Since(start), Attempts: prior + attempts,
	}
	var pe *sim.PanicError
	if errors.As(err, &pe) {
		re.Stack = string(pe.Stack)
	}
	return nil, prior + attempts, re
}

// guardedCall runs one attempt under the stuck-run watchdog. With no
// StallGrace the attempt runs inline (no extra goroutine, no overhead);
// with one, the attempt runs in its own goroutine and — once the run's
// context has expired — gets StallGrace longer to return before the
// orchestrator walks away with sim.ErrStalled. The abandoned goroutine
// is leaked deliberately: a truly wedged worker (deadlock, blocked
// syscall) cannot be killed from outside, and leaking it bounded-many
// times (Retries per config) beats wedging the campaign forever.
func (o *Orchestrator) guardedCall(runFn func(context.Context, sim.Config) (*sim.Result, error),
	ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	if o.opts.StallGrace <= 0 {
		return safeCall(runFn, ctx, cfg)
	}
	type attempt struct {
		res *sim.Result
		err error
	}
	// Buffered so the abandoned goroutine's eventual send never blocks.
	ch := make(chan attempt, 1)
	go func() {
		res, err := safeCall(runFn, ctx, cfg)
		ch <- attempt{res, err}
	}()
	select {
	case a := <-ch:
		return a.res, a.err
	case <-ctx.Done():
	}
	grace := time.NewTimer(o.opts.StallGrace)
	defer grace.Stop()
	select {
	case a := <-ch:
		return a.res, a.err
	case <-grace.C:
		telemetry.Degraded.StalledRuns.Add(1)
		return nil, fmt.Errorf("%w (no response %v past its context)",
			sim.ErrStalled, o.opts.StallGrace)
	}
}

// safeCall runs one attempt with panic isolation: a crash inside the
// simulator becomes a *sim.PanicError carrying the goroutine stack.
func safeCall(runFn func(context.Context, sim.Config) (*sim.Result, error),
	ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &sim.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return runFn(ctx, cfg)
}
