package runner

import (
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Fan-out stage: before the per-run stage starts, each group the planner
// formed from configs that share a primary record stream (planFan) runs
// through sim.RunFanGroup — one trace decode and front-end pass feeding
// its digest-eligible points, the rest running per-run inside it. Points
// that fail inside a group (chaos panic, stall, abort) fall back to the
// per-run stage carrying one prior attempt, so they re-enter the normal
// retry/backoff ladder at the next rung instead of retrying immediately;
// the fan-out stage itself never consumes per-run retry budget.
//
// With no shared pool, groups run one at a time: a group's two digest
// slabs keep its digest points within one slab of the front, so each
// extra digest point costs one simulator's below-L2 state rather than a
// full worker, and running groups serially keeps the campaign's peak
// footprint at one group regardless of Options.Workers. On a
// shared pool (the campaign service), each group is one weighted-queue
// task — one worker slot per group — so concurrent campaigns' groups
// interleave under fair scheduling and a draining pool sheds
// not-yet-started groups back to the per-run stage, where drain
// accounting leaves them unstored and pending, while in-flight groups
// finish and store their results.

// runFanGroup executes one fan-out group and returns the indices that
// must drain through the per-run stage: points that failed in-group
// (carrying one prior attempt so the per-run executor re-enters the
// backoff ladder instead of retrying immediately) plus points another
// campaign is computing right now (no prior attempt — the per-run path
// collapses them onto that computation via the store's single-flight).
func (c *campaign) runFanGroup(gi int, g []int) (fallback []int) {
	o := c.o
	run := g
	if st := o.opts.Store; st != nil {
		// The admission-time store check may be stale by the time this
		// group is scheduled: re-check each point (a re-check counts no
		// miss), then claim the rest in one sweep so concurrent campaigns
		// running the same configs wait for this group instead of
		// re-decoding and re-simulating it.
		run = nil
		var claimKeys []string
		for _, i := range g {
			if res, ok := st.Lookup(c.pts[i].key); ok {
				c.finish(i, res, 0, store.ViaHit)
				continue
			}
			run = append(run, i)
			claimKeys = append(claimKeys, c.pts[i].key)
		}
		claimed, release := st.BeginFlights(claimKeys)
		// finish publishes each point as it lands; the deferred release
		// wakes the waiters of the rest even when the group panics.
		defer release()
		kept := run[:0]
		for _, i := range run {
			if claimed[c.pts[i].key] {
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
		gcfgs[j] = c.pts[i].cfg
	}
	// The group shares one budget: its digest followers advance together
	// behind one front, so a point's own deadline is not meaningful and
	// the group gets the sum.
	gctx, cancel := c.withTimeout(len(run))
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
				gi, i, gcfgs[j].Mode, gcfgs[j].Workload, gcfgs[j].PInduce, pt.Err)
			// Each index belongs to exactly one group, so its prior
			// count is written by exactly one goroutine.
			c.pts[i].prior++
			fallback = append(fallback, i)
			continue
		}
		c.finish(i, pt.Res, 1, store.ViaCompute)
	}
	if failed == len(run) {
		telemetry.Fanout.GroupAborts.Add(1)
	}
	return fallback
}
