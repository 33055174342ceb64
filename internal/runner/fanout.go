package runner

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fan-out phase: before the per-run execution starts, the orchestrator
// groups pending configs that share a primary record stream
// (sim.FanGroupKey) and runs each group through sim.RunFanGroup — one
// trace decode and front-end pass feeding its digest-eligible points,
// the rest running per-run inside it. Points that fail inside a group
// (chaos panic, stall, abort) fall back to the per-run path carrying
// one prior attempt, so they re-enter the normal retry/backoff ladder
// at the next rung instead of retrying immediately; the fan-out phase
// itself never consumes per-run retry budget.
//
// With no shared pool, groups run one at a time: the fan barrier keeps
// a group's digest points within one decoded batch of each other, so
// each extra digest point costs one simulator's below-L2 state rather
// than a full worker, and running groups serially keeps the campaign's
// peak footprint at one group regardless of Options.Workers. On a
// shared pool (the campaign service), each group is one weighted-queue
// task — one worker slot per group — so concurrent campaigns' groups
// interleave under fair scheduling and a draining pool sheds
// not-yet-started groups back to the journal-pending state while
// in-flight groups finish and checkpoint.
//
// A group is only fanned when every member is actually pending. A
// resumed campaign whose journal already covers part of a group leaves
// a partial group whose remaining points run on the per-run path: the
// journal was written by per-run attempts, and a resume should finish
// the way it started rather than switch execution strategy mid-sweep.

// fanGroups partitions the pending indices into fan-out groups and the
// indices that stay on the sequential path. cfgs' indices are grouped
// by FanGroupKey over all keyed configs; a group is returned only when
// it has at least two members, all of them pending. maxGroup >= 2 caps
// group size (load shedding): oversized groups are split into chunks of
// at most maxGroup points, and a leftover singleton rides the per-run
// path.
func fanGroups(cfgs []sim.Config, keys []string, pending []int, maxGroup int, resumed func(int) bool) (groups [][]int, rest []int) {
	pend := make(map[int]bool, len(pending))
	for _, i := range pending {
		pend[i] = true
	}
	byKey := make(map[string][]int)
	var order []string
	for i, cfg := range cfgs {
		if keys[i] == "" {
			continue // unhashable: already failed up front
		}
		k, err := sim.FanGroupKey(cfg)
		if err != nil {
			continue // the sequential path will surface the same error
		}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	grouped := make(map[int]bool)
	for _, k := range order {
		g := byKey[k]
		if len(g) < 2 {
			continue
		}
		whole := true
		for _, i := range g {
			if !pend[i] || resumed(i) {
				whole = false
				break
			}
		}
		if !whole {
			continue
		}
		for len(g) >= 2 {
			n := len(g)
			if maxGroup >= 2 && n > maxGroup {
				n = maxGroup
			}
			if n < 2 {
				break
			}
			chunk := g[:n]
			g = g[n:]
			groups = append(groups, chunk)
			for _, i := range chunk {
				grouped[i] = true
			}
		}
	}
	for _, i := range pending {
		if !grouped[i] {
			rest = append(rest, i)
		}
	}
	return groups, rest
}

// runFanPhase executes the fan-out groups — serially when q is nil, as
// one shared-pool task per group otherwise — and returns the indices
// still pending for the per-run path (non-grouped points plus
// fallbacks, plus whole groups shed by a draining pool).
func (o *Orchestrator) runFanPhase(ctx context.Context, cfgs []sim.Config, keys []string,
	pending []int, prior []int, out *Outcome, mu *sync.Mutex,
	prog *telemetry.Progress, journal *Journal, q *Queue) []int {

	groups, rest := fanGroups(cfgs, keys, pending, o.opts.FanMaxGroup, func(i int) bool {
		return out.Results[i] != nil
	})
	if q == nil {
		for gi, g := range groups {
			if ctx.Err() != nil {
				// Cancelled mid-phase: the remaining groups' points drain
				// through the per-run path's cancellation accounting.
				rest = append(rest, g...)
				continue
			}
			rest = append(rest, o.runFanGroup(ctx, gi, g, cfgs, keys, prior, out, mu, prog, journal)...)
		}
	} else {
		var rmu sync.Mutex
		var wg sync.WaitGroup
		for gi, g := range groups {
			gi, g := gi, g
			wg.Add(1)
			q.Submit(func(shed bool) {
				defer wg.Done()
				if shed || ctx.Err() != nil {
					// A shed or cancelled group never attempted its
					// points: they re-enter the per-run path at rung 0,
					// where drain/cancel accounting applies.
					rmu.Lock()
					rest = append(rest, g...)
					rmu.Unlock()
					return
				}
				fb := o.runFanGroup(ctx, gi, g, cfgs, keys, prior, out, mu, prog, journal)
				if len(fb) > 0 {
					rmu.Lock()
					rest = append(rest, fb...)
					rmu.Unlock()
				}
			})
		}
		wg.Wait()
	}
	sort.Ints(rest)
	return rest
}

// runFanGroup executes one fan-out group and returns the indices that
// must drain through the per-run path: points that failed in-group
// (carrying one prior attempt so the per-run executor re-enters the
// backoff ladder instead of retrying immediately) plus points another
// campaign is computing right now (no prior attempt — the per-run path
// collapses them onto that computation via the store's single-flight).
func (o *Orchestrator) runFanGroup(ctx context.Context, gi int, g []int, cfgs []sim.Config, keys []string,
	prior []int, out *Outcome, mu *sync.Mutex, prog *telemetry.Progress, journal *Journal) (fallback []int) {

	run := g
	published := make(map[string]*sim.Result)
	if st := o.opts.Store; st != nil {
		// The admission-time store check may be stale by the time this
		// group is scheduled: re-check each point, then claim the rest in
		// one sweep so concurrent campaigns running the same configs wait
		// for this group instead of re-decoding and re-simulating it.
		run = nil
		var claimKeys []string
		for _, i := range g {
			if res, ok := st.Lookup(keys[i]); ok {
				mu.Lock()
				out.Results[i] = res
				out.FromStore++
				mu.Unlock()
				prog.RunCompleted()
				if o.opts.OnResult != nil {
					o.opts.OnResult(i, keys[i], res, false)
				}
				o.journalOne(journal, i, 0, cfgs, keys, res, out, mu, prog)
				continue
			}
			run = append(run, i)
			claimKeys = append(claimKeys, keys[i])
		}
		claimed, finish := st.BeginFlights(claimKeys)
		// The deferred finish releases waiters even when the group
		// panics; points the group never published wake into their own
		// attempts.
		defer func() { finish(published) }()
		kept := run[:0]
		for _, i := range run {
			if claimed[keys[i]] {
				kept = append(kept, i)
			} else {
				fallback = append(fallback, i)
			}
		}
		run = kept
		if len(run) == 0 {
			return fallback
		}
	}

	gcfgs := make([]sim.Config, len(run))
	for j, i := range run {
		c := cfgs[i]
		if c.Streams == nil {
			c.Streams = o.opts.Streams
		}
		gcfgs[j] = c
	}
	gctx := ctx
	cancel := func() {}
	if o.opts.Timeout > 0 {
		// The group shares one budget: its digest followers advance
		// together behind one front, so a point's own deadline is not
		// meaningful and the group gets the sum.
		gctx, cancel = context.WithTimeout(ctx, o.opts.Timeout*time.Duration(len(run)))
	}
	// sim.RunFanGroup counts the points that share a decode.
	telemetry.Fanout.GroupsFormed.Add(1)
	pts := sim.RunFanGroup(gctx, gcfgs, o.opts.StallGrace)
	cancel()

	failed := 0
	for j, pt := range pts {
		i := run[j]
		if pt.Err != nil {
			failed++
			telemetry.Fanout.FallbackPoints.Add(1)
			o.logf("fan-out group %d: point %d (%s %s p=%g) fell back to sequential: %v",
				gi, i, cfgs[i].Mode, cfgs[i].Workload, cfgs[i].PInduce, pt.Err)
			// Each index belongs to exactly one group, so prior[i] is
			// written by exactly one goroutine.
			prior[i]++
			fallback = append(fallback, i)
			continue
		}
		mu.Lock()
		out.Results[i] = pt.Res
		out.Ran++
		mu.Unlock()
		prog.RunCompleted()
		if o.opts.OnResult != nil {
			o.opts.OnResult(i, keys[i], pt.Res, false)
		}
		if journal != nil {
			if err := journal.Append(keys[i], pt.Res); err != nil {
				prog.JournalError()
				mu.Lock()
				out.Failures = append(out.Failures, &RunError{
					Index: i, Config: cfgs[i], Key: keys[i],
					Attempts: 1, JournalOnly: true,
					Err: fmt.Errorf("journaling result: %w", err),
				})
				mu.Unlock()
			}
		}
		// Fan-group points are full-fidelity — persist them for every
		// future campaign, after the journal append, and publish them to
		// any concurrent campaigns waiting on this group's flights.
		if o.opts.Store != nil {
			published[keys[i]] = pt.Res
			if err := o.opts.Store.Put(keys[i], pt.Res); err != nil {
				o.logf("store: caching fan-out result of run %d failed (campaign unaffected): %v", i, err)
			}
		}
	}
	if failed == len(run) {
		telemetry.Fanout.GroupAborts.Add(1)
	}
	return fallback
}
