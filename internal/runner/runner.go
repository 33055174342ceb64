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
//   - resume: each completed result is appended to a JSONL journal keyed
//     by a deterministic config hash; rerunning the same campaign with
//     the same journal skips everything already completed, so a crashed
//     or interrupted sweep loses no finished work.
package runner

import (
	"context"
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
// workers, no per-run deadline, no retries and no journal — equivalent
// to sim.RunManyContext plus structured failures.
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
	// attempt n: Backoff << (n-1), capped at BackoffMax, with a
	// deterministic ±25% jitter derived from the config seed and attempt
	// number so resumed campaigns pause identically while concurrent
	// retries still decorrelate. 0 retries immediately (the previous
	// behaviour).
	Backoff time.Duration
	// BackoffMax caps the exponential backoff; 0 means 16×Backoff.
	BackoffMax time.Duration
	// StallGrace arms the stuck-run watchdog: a run whose context has
	// expired gets this much longer to return on its own before the
	// orchestrator abandons the wedged goroutine and fails the attempt
	// with sim.ErrStalled (retryable, counted in expvar). 0 disables the
	// watchdog — a run that ignores its context then blocks its worker
	// forever. The watchdog only triggers on an expired context, so a
	// hang under neither Timeout nor cancellation is undetectable.
	StallGrace time.Duration
	// Journal, when non-empty, is the path of the JSONL checkpoint
	// file. Existing entries are loaded first and their configs are
	// skipped; every newly completed result is appended and flushed.
	Journal string
	// Logf receives progress and failure lines (log.Printf-shaped);
	// nil means silent.
	Logf func(format string, args ...any)
	// Progress, when positive, emits a live heartbeat snapshot
	// (completed/failed/retried runs, runs/sec, ETA, journal state)
	// through Logf on this period. Independent of the period, every
	// campaign publishes its progress on expvar ("pinte.campaign",
	// served by the prof package's -debug endpoint).
	Progress time.Duration
	// Streams, when non-nil, is stamped onto every config that does not
	// already carry a stream provider: the campaign's record/replay
	// cache (internal/replay). All workers then share each workload's
	// recorded stream — it is recorded by whichever run needs it first
	// and replayed read-only by the rest. Results are byte-identical
	// with or without it (the provider is excluded from config hashing).
	Streams trace.SourceProvider
	// Fanout enables sweep fan-out: pending configs that share a
	// primary record stream (sim.FanGroupKey) are grouped and each group
	// runs through sim.RunFanGroup before the per-run worker pool
	// starts; the group's digest-eligible points share one trace decode
	// and front-end pass, and the rest run per-run inside the group.
	// Results are byte-identical to the sequential path; points that
	// fail inside a group fall back to it, where the normal retry policy
	// applies. Partial groups from a resumed journal and singleton
	// groups always run per-run.
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
	// per-run pool starts, every distinct sample-eligible
	// (workload, budgets, seed) projection among the pending configs
	// gets one telemetry-only Isolation profile, the profile is
	// clustered into a phase.Plan (internal/phase), and each member run
	// then simulates only the plan's representative windows, reporting
	// extrapolated metrics with error bounds in Result.Sampled. Configs
	// that are not sample-eligible, members of a failed profile, and
	// sampled attempts that fail at run time all fall back to the
	// full-ROI path. Mutually exclusive with Fanout (fan groups simulate
	// the full ROI); sampling wins when both are set.
	// Sampled results are approximations: do not mix Sample on and off
	// across resumes of the same journal.
	Sample bool
	// Pool, when non-nil, executes the campaign on a shared
	// multi-campaign worker pool instead of workers owned by this
	// orchestrator: every run (and every fan-out group) becomes one
	// task on a weighted queue tagged Tenant/Weight, so concurrent
	// campaigns interleave under stride fair scheduling and per-tenant
	// concurrency caps. Workers is ignored in pool mode. Tasks shed by
	// a draining pool are recorded as ErrCanceled, leaving them pending
	// in the journal for the next resume.
	Pool *Pool
	// Tenant tags the campaign's pool queue for per-tenant caps;
	// Weight is its fair-share weight (minimum 1). Both are ignored
	// without Pool.
	Tenant string
	Weight int
	// CampaignID, when non-empty, registers the campaign's live
	// progress in the telemetry campaign registry (expvar
	// "pinte.campaigns") instead of the process-wide last-campaign-wins
	// "pinte.campaign" slot. The service unregisters it when the
	// campaign is finalized.
	CampaignID string
	// OnResult observes every completed result: resumed journal entries
	// first (fromJournal=true, in input order), then live completions
	// as they happen. Called without internal locks held; must be safe
	// for concurrent use.
	OnResult func(index int, key string, res *sim.Result, fromJournal bool)
	// Store, when non-nil, is the cross-campaign content-addressed
	// result store (internal/store): pending configs already stored
	// under the current simulator fingerprint are satisfied without
	// running, configs another campaign is computing right now are
	// collapsed onto that computation via single-flight (no pool worker
	// burned on a duplicate), and every full-fidelity completion is
	// appended after its journal entry. Sampled runs bypass the store
	// in both directions — approximations are never shared. Store
	// failures degrade to compute-without-cache; they never fail a run.
	Store *store.Store
}

// RunError describes one failed run of a campaign.
type RunError struct {
	// Index is the config's position in the RunAll input.
	Index int
	// Config is the original (unperturbed) configuration.
	Config sim.Config
	// Key is the config's journal hash.
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
	// JournalOnly marks a failure where the simulation itself
	// succeeded — its result is present in Outcome.Results — but the
	// checkpoint append to the resume journal was lost. Callers should
	// treat these as warnings about journal completeness, not as
	// failed runs.
	JournalOnly bool
}

func (e *RunError) Error() string {
	kind := "run"
	if e.JournalOnly {
		kind = "journal-only failure for run"
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
	// FromJournal counts configs satisfied from the resume journal
	// without running; FromStore counts configs satisfied from the
	// cross-campaign result store (a prior hit or a shared in-flight
	// computation); Ran counts configs actually executed.
	FromJournal int
	FromStore   int
	Ran         int
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
// result, excluding journal-only failures (result kept, checkpoint
// lost). Exit-code logic should key off this list: a campaign whose
// every run completed is not a failed campaign just because a journal
// write was.
func (o *Outcome) HardFailures() []*RunError {
	var hard []*RunError
	for _, f := range o.Failures {
		if !f.JournalOnly {
			hard = append(hard, f)
		}
	}
	return hard
}

// JournalFailures returns the journal-only failures.
func (o *Outcome) JournalFailures() []*RunError {
	var jf []*RunError
	for _, f := range o.Failures {
		if f.JournalOnly {
			jf = append(jf, f)
		}
	}
	return jf
}

// Orchestrator executes campaigns under one Options set. Safe for use
// by a single campaign at a time.
type Orchestrator struct {
	opts Options
	// run executes one attempt; tests substitute it to inject panics
	// and hangs. nil means sim.RunContext. Panics are recovered by the
	// orchestrator regardless of the function used.
	run func(ctx context.Context, cfg sim.Config) (*sim.Result, error)
	// sleep waits out a backoff delay; tests substitute a fake clock.
	// nil means a context-aware real sleep.
	sleep func(ctx context.Context, d time.Duration)
	// plans, built by runSamplePhase, is parallel to the RunAll input:
	// a non-nil slot switches that config's attempts to phase-sampled
	// execution (stripped again on a sampled failure's fallback).
	plans []*phase.Plan
}

// New builds an orchestrator.
func New(opts Options) *Orchestrator { return &Orchestrator{opts: opts} }

func (o *Orchestrator) logf(format string, args ...any) {
	if o.opts.Logf != nil {
		o.opts.Logf(format, args...)
	}
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

// backoffDelay computes the pause before retry attempt n (n >= 1) of a
// run with the given original seed: base << (n-1), capped at max (or
// 16×base when max is 0), with a deterministic ±25% jitter so a resumed
// campaign replays the same pauses while concurrent retries of
// different configs decorrelate instead of thundering together.
func backoffDelay(base, max time.Duration, attempt int, seed uint64) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	if max <= 0 {
		max = 16 * base
	}
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
// it always returns an Outcome covering every config. The error return
// is reserved for campaign-level faults (an unreadable or unwritable
// journal); per-run failures — including cancellation — are reported in
// Outcome.Failures so callers can emit completed rows and exit non-zero.
func (o *Orchestrator) RunAll(ctx context.Context, cfgs []sim.Config) (*Outcome, error) {
	out := &Outcome{Results: make([]*sim.Result, len(cfgs))}

	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := ConfigKey(cfg)
		if err != nil {
			out.Failures = append(out.Failures, &RunError{
				Index: i, Config: cfg, Attempts: 0,
				Err: fmt.Errorf("%w: unhashable: %v", sim.ErrBadConfig, err),
			})
			continue
		}
		keys[i] = k
	}

	prog := telemetry.NewProgress(len(cfgs), time.Now())
	if o.opts.CampaignID != "" {
		telemetry.RegisterCampaign(o.opts.CampaignID, prog)
	} else {
		prog.Publish()
	}
	for range out.Failures {
		prog.RunFailed() // unhashable configs counted up front
	}

	var journal *Journal
	if o.opts.Journal != "" {
		var done map[string]*sim.Result
		var jst LoadStats
		var err error
		journal, done, jst, err = OpenJournal(o.opts.Journal)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
		for i := range cfgs {
			if res, ok := done[keys[i]]; ok && keys[i] != "" {
				out.Results[i] = res
				out.FromJournal++
			}
		}
		prog.FromJournal(out.FromJournal)
		prog.JournalSkipped(jst.Skipped)
		if out.FromJournal > 0 || jst.Skipped > 0 {
			line := fmt.Sprintf("resume: %d of %d runs already journaled in %s",
				out.FromJournal, len(cfgs), o.opts.Journal)
			if jst.Skipped > 0 {
				line += fmt.Sprintf(" (%d corrupt journal lines skipped; their runs re-execute)", jst.Skipped)
			}
			if jst.TruncatedTail {
				line += " (truncated final line from an interrupted append dropped)"
			}
			o.logf("%s", line)
		}
	}

	if o.opts.OnResult != nil {
		for i := range cfgs {
			if out.Results[i] != nil {
				o.opts.OnResult(i, keys[i], out.Results[i], true)
			}
		}
	}

	var pending []int
	for i := range cfgs {
		if out.Results[i] == nil && keys[i] != "" {
			pending = append(pending, i)
		}
	}

	// prior[i] counts failed fan-out in-group attempts for config i, so
	// a point that dies inside a group re-enters the per-run
	// retry/backoff ladder at the next rung instead of retrying
	// immediately.
	prior := make([]int, len(cfgs))

	// Heartbeats: a ticker goroutine snapshots the live progress and
	// pushes one line per period through Logf, plus a final line when
	// the campaign drains.
	var heartbeatDone chan struct{}
	if o.opts.Progress > 0 && o.opts.Logf != nil {
		heartbeatDone = make(chan struct{})
		go func() {
			t := time.NewTicker(o.opts.Progress)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					o.logf("%s", prog.Snapshot(time.Now()))
				case <-heartbeatDone:
					return
				}
			}
		}()
	}

	var mu sync.Mutex
	var q *Queue
	if o.opts.Pool != nil {
		q = o.opts.Pool.NewQueue(o.opts.Tenant, o.opts.Weight)
		defer q.Close()
	}

	// Store phase: before any scheduling, satisfy pending configs from
	// the cross-campaign result store, and pull configs another campaign
	// is computing right now out of the scheduling paths entirely — each
	// becomes a watcher (launched below, after the phase planners have
	// run) that blocks on the in-flight computation instead of burning a
	// pool worker on a duplicate. Running this before the sample/fan
	// phases keeps already-answered configs out of profile and decode
	// work.
	var watcherIdx []int
	if st := o.opts.Store; st != nil {
		rest := pending[:0]
		hits := 0
		for _, i := range pending {
			if res, ok := st.Get(keys[i]); ok {
				mu.Lock()
				out.Results[i] = res
				out.FromStore++
				mu.Unlock()
				hits++
				prog.RunCompleted()
				if o.opts.OnResult != nil {
					o.opts.OnResult(i, keys[i], res, false)
				}
				o.journalOne(journal, i, 0, cfgs, keys, res, out, &mu, prog)
				continue
			}
			if st.InFlight(keys[i]) {
				watcherIdx = append(watcherIdx, i)
				continue
			}
			rest = append(rest, i)
		}
		pending = rest
		if hits > 0 || len(watcherIdx) > 0 {
			o.logf("store: %d of %d pending runs served from %s (%d more in flight elsewhere)",
				hits, hits+len(watcherIdx)+len(pending), st.FingerprintID(), len(watcherIdx))
		}
	}

	if o.opts.Sample && o.run == nil {
		// Sample phase: profile, cluster and stamp sampling plans (see
		// sample.go). Test harnesses that substitute o.run bypass it —
		// a profile runs the real simulator, not the injected stand-in.
		if o.opts.Fanout {
			o.logf("sampling and fan-out both requested; sampling wins (fan groups run the full simulator)")
		}
		o.runSamplePhase(ctx, cfgs, pending, q)
	} else if o.opts.Fanout && o.run == nil {
		// Fan-out phase: grouped points run against one shared decode;
		// whatever it could not place (singletons, partial resume groups,
		// in-group failures) drains through the per-run pool below. Test
		// harnesses that substitute o.run bypass it — a fan group runs
		// the real simulator, not the injected stand-in.
		pending = o.runFanPhase(ctx, cfgs, keys, pending, prior, out, &mu, prog, journal, q)
	}

	// Watchers: configs found in flight elsewhere during the store phase
	// ride on plain goroutines — execOne lands in the store's
	// single-flight wait (or inherits the finished result, or becomes
	// the new leader if the other campaign's attempt died) without
	// occupying a pool slot or one of this campaign's workers.
	var watchers sync.WaitGroup
	for _, i := range watcherIdx {
		i := i
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			o.execOne(ctx, i, cfgs, keys, prior, out, &mu, prog, journal)
		}()
	}

	if q != nil {
		// Shared-pool mode: one task per pending config on the
		// campaign's weighted queue. A task shed by a draining pool is
		// recorded as ErrCanceled — same accounting as an unscheduled
		// config below — which leaves it pending in the journal for the
		// next resume.
		var wg sync.WaitGroup
		for _, i := range pending {
			i := i
			wg.Add(1)
			q.Submit(func(shed bool) {
				defer wg.Done()
				if shed || ctx.Err() != nil {
					mu.Lock()
					out.Failures = append(out.Failures, &RunError{
						Index: i, Config: cfgs[i], Key: keys[i], Err: sim.ErrCanceled,
					})
					mu.Unlock()
					prog.RunFailed()
					return
				}
				o.execOne(ctx, i, cfgs, keys, prior, out, &mu, prog, journal)
			})
		}
		wg.Wait()
	} else {
		workers := o.opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		var wg sync.WaitGroup
		idx := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					o.execOne(ctx, i, cfgs, keys, prior, out, &mu, prog, journal)
				}
			}()
		}
		scheduled := len(pending)
		for n, i := range pending {
			select {
			case idx <- i:
			case <-ctx.Done():
				scheduled = n
			}
			if scheduled != len(pending) {
				break
			}
		}
		close(idx)
		wg.Wait()
		for _, i := range pending[scheduled:] {
			out.Failures = append(out.Failures, &RunError{
				Index: i, Config: cfgs[i], Key: keys[i], Err: sim.ErrCanceled,
			})
			prog.RunFailed()
		}
	}
	watchers.Wait()
	if heartbeatDone != nil {
		close(heartbeatDone)
		o.logf("%s", prog.Snapshot(time.Now()))
	}
	sort.Slice(out.Failures, func(a, b int) bool {
		return out.Failures[a].Index < out.Failures[b].Index
	})
	return out, nil
}

// execOne runs one pending config end to end — retry ladder, result and
// failure accounting, journal append, result callback — sharing the
// campaign mutex with every other executor of the same campaign. With a
// result store configured, full-fidelity attempts run under its
// single-flight: concurrent identical configs (other campaigns, other
// tenants) collapse onto one computation, and the computing side
// persists its result to the store after the journal append. Sampled
// attempts bypass the store — approximations are never shared.
func (o *Orchestrator) execOne(ctx context.Context, i int, cfgs []sim.Config, keys []string,
	prior []int, out *Outcome, mu *sync.Mutex, prog *telemetry.Progress, journal *Journal) {
	st := o.opts.Store
	sampled := o.plans != nil && o.plans[i] != nil
	var (
		res      *sim.Result
		attempts int
		rerr     *RunError
	)
	via := store.ViaCompute
	if st != nil && !sampled {
		var shared *sim.Result
		var derr error
		shared, via, derr = st.Do(ctx, keys[i], func() (*sim.Result, error) {
			res, attempts, rerr = o.runOne(ctx, i, cfgs[i], keys[i], prior[i], prog)
			if rerr != nil {
				return nil, rerr.Err
			}
			return res, nil
		})
		switch {
		case via == store.ViaCompute:
			// res/attempts/rerr already carry this run's own attempt.
		case derr != nil:
			// Canceled while waiting on another campaign's computation.
			rerr = &RunError{Index: i, Config: cfgs[i], Key: keys[i], Err: sim.ErrCanceled}
		default:
			res, rerr = shared, nil
		}
	} else {
		res, attempts, rerr = o.runOne(ctx, i, cfgs[i], keys[i], prior[i], prog)
	}

	mu.Lock()
	if via == store.ViaCompute {
		out.Ran++
	} else if rerr == nil {
		out.FromStore++
	}
	if rerr != nil {
		out.Failures = append(out.Failures, rerr)
		mu.Unlock()
		prog.RunFailed()
		return
	}
	out.Results[i] = res
	mu.Unlock()
	prog.RunCompleted()
	if o.opts.OnResult != nil {
		o.opts.OnResult(i, keys[i], res, false)
	}
	o.journalOne(journal, i, attempts, cfgs, keys, res, out, mu, prog)
	if st != nil && !sampled && via == store.ViaCompute {
		// Persist for every future campaign, after the journal append so
		// the campaign's own durability is settled first. A failed Put
		// costs only the cache entry — the run already succeeded.
		if err := st.Put(keys[i], res); err != nil {
			o.logf("store: caching result of run %d failed (campaign unaffected): %v", i, err)
		}
	}
}

// journalOne appends one completed result to the resume journal,
// recording an append failure as a journal-only RunError: the run
// itself succeeded and its result is kept in Results[i]; only the
// checkpoint was lost, and exit-code logic and reports stay truthful.
func (o *Orchestrator) journalOne(journal *Journal, i, attempts int, cfgs []sim.Config,
	keys []string, res *sim.Result, out *Outcome, mu *sync.Mutex, prog *telemetry.Progress) {
	if journal == nil {
		return
	}
	if err := journal.Append(keys[i], res); err != nil {
		prog.JournalError()
		mu.Lock()
		out.Failures = append(out.Failures, &RunError{
			Index: i, Config: cfgs[i], Key: keys[i],
			Attempts: attempts, JournalOnly: true,
			Err: fmt.Errorf("journaling result: %w", err),
		})
		mu.Unlock()
	}
}

// runOne executes one config with the per-run deadline, panic capture
// and bounded seed-perturbation retry policy applied. prior counts
// failed attempts already consumed elsewhere (a fan-out in-group
// failure): they advance the backoff ladder and the reported attempt
// count, but not the seed ladder — the first per-run attempt keeps the
// original seed, so a clean fallback stays byte-identical to a
// sequential run. It returns the total attempt count alongside the
// result so journal-only failures can carry it.
func (o *Orchestrator) runOne(ctx context.Context, index int, cfg sim.Config, key string, prior int, prog *telemetry.Progress) (*sim.Result, int, *RunError) {
	runFn := o.run
	if runFn == nil {
		runFn = sim.RunContext
	}
	if fault.Enabled() {
		// Chaos-mode worker faults wrap the real run so an injected panic
		// is recovered by safeCall and an injected wedge is exactly what
		// the watchdog must convert into a typed failure.
		inner := runFn
		runFn = func(ctx context.Context, c sim.Config) (*sim.Result, error) {
			if fault.Fires(fault.SiteWorkerPanic) {
				panic(fmt.Sprintf("%v at %s", fault.ErrInjected, fault.SiteWorkerPanic))
			}
			if d := fault.Delay(fault.SiteWorkerSlow); d > 0 {
				time.Sleep(d)
			}
			if fault.Fires(fault.SiteWorkerHang) {
				fault.Hang()
			}
			return inner(ctx, c)
		}
	}
	// plan, when non-nil, runs this config's attempts in phase-sampled
	// mode. A sampled attempt that fails strips the plan and re-runs the
	// same attempt on the full-ROI path — a free retry with the same
	// seed, so sampling can degrade the budget saving but never the
	// campaign's outcome.
	var plan *phase.Plan
	if o.plans != nil {
		plan = o.plans[index]
	}
	start := time.Now()
	var err error
	attempts := 0
	for attempts <= o.opts.Retries {
		c := cfg
		c.Seed = PerturbSeed(cfg.Seed, attempts)
		if c.Streams == nil {
			c.Streams = o.opts.Streams
		}
		c.Sample = plan
		// ladder is this attempt's rung on the retry/backoff ladder:
		// per-run retries plus any failed in-group fan-out attempt, so
		// a fallback waits out the same backoff a plain retry would.
		ladder := prior + attempts
		if ladder > 0 {
			if attempts > 0 {
				prog.Retried()
				o.logf("retry %d/%d for run %d (%s %s): %v; perturbed seed %d",
					attempts, o.opts.Retries, index, cfg.Mode, cfg.Workload, err, c.Seed)
			} else {
				prog.Retried()
				o.logf("run %d (%s %s) re-enters the backoff ladder at rung %d after an in-group failure",
					index, cfg.Mode, cfg.Workload, ladder)
			}
			if d := backoffDelay(o.opts.Backoff, o.opts.BackoffMax, ladder, cfg.Seed); d > 0 {
				sleep := o.sleep
				if sleep == nil {
					sleep = ctxSleep
				}
				sleep(ctx, d)
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
		res, err = o.guardedCall(runFn, rctx, c)
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
		Index: index, Config: cfg, Key: key, Err: err,
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
