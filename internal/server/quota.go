package server

import (
	"fmt"
	"time"
)

// Quotas bounds what one tenant may hold of the service at once. Zero
// fields mean unlimited — a single-tenant lab deployment needs no
// configuration — but a shared deployment sets all three so one
// tenant's 50k-run campaign cannot starve, flood, or fill the disk
// under everyone else.
type Quotas struct {
	// MaxQueuedRuns caps a tenant's pending (admitted but not yet
	// completed) runs across all its campaigns. A submission that would
	// exceed it is refused 429 with a Retry-After estimate.
	MaxQueuedRuns int
	// MaxConcurrent caps how many pool workers the tenant's runs may
	// occupy simultaneously (enforced by the pool's tenant cap).
	MaxConcurrent int
	// ResultBytes caps the stored-result bytes the tenant's campaigns
	// have received — the store record sizes of their results, however
	// cheaply each was served; a submission from a tenant over budget is
	// refused 429 until its finished campaigns are deleted below the
	// line.
	ResultBytes int64
	// DegradeQueuedRuns is the service-wide soft limit: when the whole
	// pool's pending-run backlog exceeds it, new campaigns are still
	// admitted but with their fan-out groups capped at DegradedMaxGroup
	// — costing extra decode passes instead of refusing work. 0
	// disables degradation.
	DegradeQueuedRuns int
	// DegradedMaxGroup is the fan-group cap applied under degradation;
	// 0 means 4.
	DegradedMaxGroup int
}

// decision is the outcome of one admission check.
type decision struct {
	// admit reports whether the campaign may start. When false, status
	// and reason describe the refusal and retryAfter estimates when the
	// submitter should try again.
	admit      bool
	status     int
	reason     string
	retryAfter time.Duration
	// degraded marks an admission under load shedding; fanMaxGroup is
	// the group cap the campaign must run with (0 = unlimited).
	degraded    bool
	fanMaxGroup int
}

// load is the live state an admission decision is made against.
type load struct {
	// tenantQueued and totalQueued count pending runs for the
	// submitting tenant and for the whole service.
	tenantQueued int64
	totalQueued  int64
	// tenantResultBytes is the tenant's stored-result charge.
	tenantResultBytes int64
	// runsPerSec is the service's observed completion rate, for
	// Retry-After estimation; 0 when nothing has completed yet.
	runsPerSec float64
}

// resultRetryAfter is the fixed Retry-After for result-budget refusals.
// Queue drain never frees result bytes — only deleting finished
// campaigns does — so deriving the header from the completion rate
// would promise a retry that cannot succeed. A flat one-minute poll is
// honest: it assumes nothing about drain, just "check back after you've
// deleted something".
const resultRetryAfter = time.Minute

// retryEstimate guesses how long until backlog runs have drained at
// rate, clamped to [1s, 10m] so the header is always actionable: a cold
// service with no measured rate suggests 5s rather than forever.
func retryEstimate(backlog int64, rate float64) time.Duration {
	if backlog <= 0 {
		return time.Second
	}
	if rate <= 0 {
		return 5 * time.Second
	}
	// Clamp in float seconds before converting: a large backlog at a
	// slow rate overflows int64 nanoseconds and would wrap negative.
	secs := float64(backlog) / rate
	if secs > 600 {
		return 10 * time.Minute
	}
	d := time.Duration(secs * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// decide applies the quota policy to one submission of runs new runs.
// It is a pure function of the quota and the observed load, so the
// policy is unit-testable without a server. Degradation is checked
// before refusal: the service sheds load (smaller fan-out groups) while
// it can, and refuses — 429, with a Retry-After derived from the
// measured completion rate — only when the tenant's own quota is the
// binding constraint.
func decide(q Quotas, l load, runs int) decision {
	if q.MaxQueuedRuns > 0 && l.tenantQueued+int64(runs) > int64(q.MaxQueuedRuns) {
		// Wait for enough of the tenant's own backlog to drain that the
		// submission would fit.
		need := l.tenantQueued + int64(runs) - int64(q.MaxQueuedRuns)
		return decision{
			status:     429,
			reason:     fmt.Sprintf("tenant queue quota exceeded: %d queued + %d submitted > %d", l.tenantQueued, runs, q.MaxQueuedRuns),
			retryAfter: retryEstimate(need, l.runsPerSec),
		}
	}
	if q.ResultBytes > 0 && l.tenantResultBytes > q.ResultBytes {
		// Deliberately NOT retryEstimate: result bytes are freed by
		// deleting campaigns, not by queue drain, so a drain-derived
		// estimate would be a promise the service cannot keep.
		return decision{
			status:     429,
			reason:     fmt.Sprintf("tenant result budget exceeded: %d bytes received > %d (delete finished campaigns)", l.tenantResultBytes, q.ResultBytes),
			retryAfter: resultRetryAfter,
		}
	}
	d := decision{admit: true}
	if q.DegradeQueuedRuns > 0 && l.totalQueued+int64(runs) > int64(q.DegradeQueuedRuns) {
		d.degraded = true
		d.fanMaxGroup = q.DegradedMaxGroup
		if d.fanMaxGroup <= 0 {
			d.fanMaxGroup = 4
		}
	}
	return d
}
