package telemetry

import (
	"expvar"
	"sync/atomic"
)

// FanoutCounters is the process-wide tally of the fan-out sweep
// executor (internal/runner + internal/sim): how many sweep groups were
// formed, how many points rode a shared decode, and how much decode
// work the sharing saved. Served on the expvar page as "pinte.fanout"
// so a campaign's operator can verify the one-decode invariant — at
// most one decode pass per group (DecodePasses <= GroupsFormed), with
// PointsFanned − DecodePasses passes saved. A group whose points cannot
// share a front end runs them per-run and spends no shared pass.
type FanoutCounters struct {
	// GroupsFormed counts fan-out groups scheduled (internal/runner);
	// PointsFanned counts the sweep points that shared a decode inside
	// them (internal/sim).
	GroupsFormed atomic.Int64
	PointsFanned atomic.Int64
	// DecodePasses counts shared trace decode passes (at most one per
	// group); DecodePassesSaved counts the passes a sequential sweep
	// would have spent on the fanned points minus those.
	DecodePasses      atomic.Int64
	DecodePassesSaved atomic.Int64
	// FallbackPoints counts points that left the fan-out path for the
	// sequential per-run path (failed, stalled or aborted mid-group);
	// GroupAborts counts whole groups abandoned to the sequential path.
	FallbackPoints atomic.Int64
	GroupAborts    atomic.Int64
}

// Fanout is the process-wide instance the fan-out scheduler reports
// into.
var Fanout FanoutCounters

// FanoutSnapshot is one consistent-enough read of the counters.
func FanoutSnapshot() map[string]int64 {
	return map[string]int64{
		"groups_formed":       Fanout.GroupsFormed.Load(),
		"points_fanned":       Fanout.PointsFanned.Load(),
		"decode_passes":       Fanout.DecodePasses.Load(),
		"decode_passes_saved": Fanout.DecodePassesSaved.Load(),
		"fallback_points":     Fanout.FallbackPoints.Load(),
		"group_aborts":        Fanout.GroupAborts.Load(),
	}
}

func init() {
	expvar.Publish("pinte.fanout", expvar.Func(func() any {
		return FanoutSnapshot()
	}))
}
