// Package core implements PInTE — Probabilistic Induction of Theft
// Evictions — the PInTE paper's primary contribution. The engine attaches
// to the shared last-level cache and, after every demand LLC access, runs
// the Fig 4 state machine: with probability P_Induce it promotes-then-
// invalidates up to associativity-many blocks at the eviction end of the
// accessed set's replacement stack, mimicking the inter-core evictions
// ("thefts") a co-running workload would cause — without simulating a
// second core.
package core

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/rng"
)

// State enumerates the Fig 4 flow states. UpdateAccess is performed by
// the cache itself (the normal replacement update of the accessed block);
// the engine takes over from GenProbability.
type State int

const (
	// StateUpdateAccess is the cache's own block update on access.
	StateUpdateAccess State = iota
	// StateGenProbability draws the contention trigger ratio (Eq 2).
	StateGenProbability
	// StateGenEvictCnt draws Blocks_evict in [0, associativity].
	StateGenEvictCnt
	// StateBlockSelect scans ways for a block at the stack's eviction end.
	StateBlockSelect
	// StatePromote moves the selected block to the MRU end, as if the
	// system had inserted a block of its own.
	StatePromote
	// StateInvalidate clears the selected block's valid bit, queueing a
	// writeback if it was dirty.
	StateInvalidate
	// StateDecrement consumes one unit of the eviction budget.
	StateDecrement
	// StateExit terminates the flow for this access.
	StateExit
)

// String returns the paper's name for the state.
func (s State) String() string {
	switch s {
	case StateUpdateAccess:
		return "UPDATE-ACCESS"
	case StateGenProbability:
		return "GEN-PROBABILITY"
	case StateGenEvictCnt:
		return "GEN-EVICT-CNT"
	case StateBlockSelect:
		return "BLOCK-SELECT"
	case StatePromote:
		return "PROMOTE"
	case StateInvalidate:
		return "INVALIDATE"
	case StateDecrement:
		return "DECREMENT"
	case StateExit:
		return "EXIT"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Params configures an engine.
type Params struct {
	// PInduce is the probability of induction in [0, 1] — the paper's
	// proxy for the probability that contention occurs on an access.
	PInduce float64
	// Seed selects the engine's private random stream; reruns with a
	// different seed are the subject of the Fig 3 stability analysis.
	Seed uint64
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.PInduce < 0 || p.PInduce > 1 {
		return fmt.Errorf("pinte: PInduce %v outside [0, 1]", p.PInduce)
	}
	return nil
}

// Stats counts engine activity. Induced thefts and mock thefts are
// recorded by the cache (they belong to cache ownership accounting); the
// engine counts its own flow.
type Stats struct {
	Accesses      uint64 // LLC accesses observed
	Triggers      uint64 // accesses whose trigger ratio passed P_Induce
	EvictBudget   uint64 // sum of Blocks_evict drawn
	Promotions    uint64
	Invalidations uint64 // valid blocks invalidated
	StateVisits   [StateExit + 1]uint64
}

// TriggerRate returns observed triggers per access.
func (s *Stats) TriggerRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Triggers) / float64(s.Accesses)
}

// Event describes one state-machine step for observers.
type Event struct {
	State State
	Set   int
	Way   int
}

// Engine is a PInTE injector. Attach it to an LLC with
// cache.SetInjector. Not safe for concurrent use.
type Engine struct {
	params Params
	// rng is embedded by value so the per-access trigger draw inlines
	// without a pointer chase; streams are bit-identical to the previous
	// math/rand/v2 implementation (see internal/rng).
	rng   rng.PCG
	Stats Stats

	// Trace, when non-nil, observes every state transition; used by the
	// Fig 2 walkthrough example and by tests.
	Trace func(Event)
}

// NewEngine builds an engine; it returns an error for out-of-range
// parameters.
func NewEngine(p Params) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{params: p}
	e.rng.Seed(p.Seed, 0x853c49e6748fea9b)
	return e, nil
}

// MustNewEngine is NewEngine that panics on invalid parameters.
func MustNewEngine(p Params) *Engine {
	e, err := NewEngine(p)
	if err != nil {
		panic(err)
	}
	return e
}

// Params returns the engine's configuration.
func (e *Engine) Params() Params { return e.params }

var _ cache.Injector = (*Engine)(nil)

// triggerFires reports whether a uniform draw in [0, 1) fires induction
// at probability p: strictly draw < p, so the endpoints are exact —
// p = 0 never fires (even on an exact-zero draw) and p = 1 always does
// (every draw is below 1).
func triggerFires(draw, p float64) bool { return draw < p }

// OnLLCAccess implements cache.Injector: it runs the Fig 4 state machine
// once for the accessed set. requester is the accessing core (unused by
// the flow itself — the system acts as the adversary for every core —
// but kept for symmetry with the hook signature).
func (e *Engine) OnLLCAccess(c *cache.Cache, set, requester int) {
	if e.Trace != nil {
		e.traced(c, set)
		return
	}
	e.Stats.Accesses++
	v := &e.Stats.StateVisits
	v[StateGenProbability]++
	v[StateExit]++
	if !triggerFires(e.rng.Float64(), e.params.PInduce) {
		return
	}
	e.Stats.Triggers++
	v[StateGenEvictCnt]++
	ways := c.Ways()
	budget := e.rng.IntN(ways + 1)
	e.Stats.EvictBudget += uint64(budget)
	for ; budget > 0; budget-- {
		// One BLOCK-SELECT walk from way 0, found in a single pass:
		// the walk visits every way up to the stack end, or all of
		// them when none is there.
		w := c.StackEnd(set)
		if w < 0 {
			v[StateBlockSelect] += uint64(ways)
			return
		}
		v[StateBlockSelect] += uint64(w + 1)
		v[StatePromote]++
		c.PromoteBlock(set, w)
		e.Stats.Promotions++
		if c.BlockValid(set, w) {
			v[StateInvalidate]++
			c.SysInvalidate(set, w)
			e.Stats.Invalidations++
		}
		v[StateDecrement]++
	}
}

// traced is OnLLCAccess stepping the Fig 4 state machine one state at a
// time, reporting every step to Trace: BLOCK-SELECT emits one event per
// way it visits. Its Stats equal the untraced path's.
func (e *Engine) traced(c *cache.Cache, set int) {
	e.Stats.Accesses++
	ways := c.Ways()

	state := StateGenProbability
	budget := 0
	w := 0
	for state != StateExit {
		e.Stats.StateVisits[state]++
		e.Trace(Event{State: state, Set: set, Way: w})
		switch state {
		case StateGenProbability:
			// Eq 2: trigger ratio = random / max-random, i.e. a
			// uniform draw in [0, 1). The comparison must be strict:
			// a non-strict one lets an exact-zero draw trigger at
			// P_Induce = 0, which has to provably never inject.
			if !triggerFires(e.rng.Float64(), e.params.PInduce) {
				state = StateExit
				break
			}
			e.Stats.Triggers++
			state = StateGenEvictCnt

		case StateGenEvictCnt:
			// Blocks_evict bounded between 0 and associativity.
			budget = e.rng.IntN(ways + 1)
			e.Stats.EvictBudget += uint64(budget)
			w = 0
			if budget == 0 {
				state = StateExit
				break
			}
			state = StateBlockSelect

		case StateBlockSelect:
			if c.AtStackEnd(set, w) {
				state = StatePromote
				break
			}
			w++
			if w >= ways {
				// Set exhausted.
				state = StateExit
				break
			}
			// Re-enter BLOCK-SELECT with the next way.

		case StatePromote:
			c.PromoteBlock(set, w)
			e.Stats.Promotions++
			if c.BlockValid(set, w) {
				state = StateInvalidate
			} else {
				state = StateDecrement
			}

		case StateInvalidate:
			c.SysInvalidate(set, w)
			e.Stats.Invalidations++
			state = StateDecrement

		case StateDecrement:
			budget--
			if budget <= 0 {
				state = StateExit
				break
			}
			// Restart the scan: the promotion moved the stack end,
			// and for policies without a total order (pLRU's tree
			// pointer, RRIP's RRPV classes) the new victim may sit
			// at a lower way index than the scan pointer. Continuing
			// from w would silently drop most of the eviction budget
			// — GEN-EVICT-CNT drew "the number of contention events
			// to induce" (§IV-C), so each budget unit gets a fresh
			// BLOCK-SELECT walk.
			w = 0
			state = StateBlockSelect
		}
	}
	e.Stats.StateVisits[StateExit]++
}

// DefaultSweep returns the 12-point P_Induce configuration set used
// throughout the paper's experiments (Fig 3 "12 PInTE configurations",
// §IV-E4 "12 PInTE configurations × 188 traces"). Values are
// probabilities; the paper's case-study axis labels them as percentages
// (e.g. "configuration 7.5" and "70").
func DefaultSweep() []float64 {
	return []float64{0.005, 0.01, 0.025, 0.05, 0.075, 0.10, 0.20, 0.30, 0.50, 0.70, 0.90, 1.0}
}

// ResetStats zeroes the engine's counters (end-of-warm-up semantics);
// the random stream continues where it was.
func (e *Engine) ResetStats() { e.Stats = Stats{} }
