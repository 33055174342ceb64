package telemetry

import (
	"expvar"
	"sync/atomic"
)

// DegradationCounters is the process-wide tally of every degraded-mode
// event in the persistence and execution stack: cases where the system
// survived a fault by dropping to a slower or lossier path instead of
// corrupting state or wedging. Each counter pairs with one rung of the
// degradation ladder documented in DESIGN.md §10; all of them are served
// on the expvar page as "pinte.degraded" (the prof package's -debug
// endpoint), so a long campaign's operator can see at a glance whether
// results were produced cleanly or under degradation.
type DegradationCounters struct {
	// ReplayCorruptChunks counts recorded arena chunks whose checksum
	// failed verification; ReplayFallbacks counts replayers that
	// switched to live regeneration because of one.
	ReplayCorruptChunks atomic.Int64
	ReplayFallbacks     atomic.Int64
	// StalledRuns counts wedged workers the watchdog abandoned with a
	// typed ErrStalled instead of hanging the campaign.
	StalledRuns atomic.Int64
}

// Degraded is the process-wide instance every package reports into.
var Degraded DegradationCounters

// DegradedSnapshot is one consistent-enough read of the counters.
func DegradedSnapshot() map[string]int64 {
	return map[string]int64{
		"replay_corrupt_chunks": Degraded.ReplayCorruptChunks.Load(),
		"replay_fallbacks":      Degraded.ReplayFallbacks.Load(),
		"stalled_runs":          Degraded.StalledRuns.Load(),
	}
}

func init() {
	expvar.Publish("pinte.degraded", expvar.Func(func() any {
		return DegradedSnapshot()
	}))
}
