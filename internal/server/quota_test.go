package server

import (
	"strings"
	"testing"
	"time"
)

// TestQuotaDecideBoundaries table-tests the pure admission policy at
// its exact edges: a submission that precisely fills MaxQueuedRuns is
// admitted, one run more is refused; degradation triggers strictly
// above DegradeQueuedRuns, not at it; and the result-budget refusal
// carries the fixed Retry-After rather than a drain-derived estimate
// that could never come true.
func TestQuotaDecideBoundaries(t *testing.T) {
	cases := []struct {
		name string
		q    Quotas
		l    load
		runs int

		admit       bool
		status      int
		reason      string // substring, "" = don't care
		retryAfter  time.Duration
		degraded    bool
		fanMaxGroup int
	}{
		{
			name:  "queue quota exactly filled admits",
			q:     Quotas{MaxQueuedRuns: 10},
			l:     load{tenantQueued: 5},
			runs:  5,
			admit: true,
		},
		{
			name:       "queue quota one over refuses with drain estimate",
			q:          Quotas{MaxQueuedRuns: 10},
			l:          load{tenantQueued: 5, runsPerSec: 1},
			runs:       6,
			status:     429,
			reason:     "tenant queue quota exceeded",
			retryAfter: time.Second, // need=1 at 1 run/s, floor-clamped
		},
		{
			name:       "fixed Retry-After when over result budget",
			q:          Quotas{ResultBytes: 1000},
			l:          load{tenantResultBytes: 1001},
			runs:       1,
			status:     429,
			reason:     "delete finished campaigns",
			retryAfter: resultRetryAfter,
		},
		{
			// The pre-fix bug: a huge tenant backlog at a slow measured
			// rate produced a 10-minute drain estimate for a condition
			// that drain cannot clear. The header must not depend on
			// queue state at all.
			name:       "result Retry-After independent of queue backlog",
			q:          Quotas{ResultBytes: 1000},
			l:          load{tenantResultBytes: 2000, tenantQueued: 100000, runsPerSec: 0.5},
			runs:       1,
			status:     429,
			reason:     "delete finished campaigns",
			retryAfter: resultRetryAfter,
		},
		{
			name:  "degradation threshold exactly met stays full-fanout",
			q:     Quotas{DegradeQueuedRuns: 20},
			l:     load{totalQueued: 15},
			runs:  5,
			admit: true,
		},
		{
			name:        "degradation one over caps fan groups at default",
			q:           Quotas{DegradeQueuedRuns: 20},
			l:           load{totalQueued: 15},
			runs:        6,
			admit:       true,
			degraded:    true,
			fanMaxGroup: 4,
		},
		{
			name:        "degradation honors explicit group cap",
			q:           Quotas{DegradeQueuedRuns: 20, DegradedMaxGroup: 2},
			l:           load{totalQueued: 21},
			runs:        1,
			admit:       true,
			degraded:    true,
			fanMaxGroup: 2,
		},
		{
			name:  "unlimited quotas admit anything",
			q:     Quotas{},
			l:     load{tenantQueued: 1 << 40, tenantResultBytes: 1 << 50, totalQueued: 1 << 40},
			runs:  1 << 20,
			admit: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := decide(tc.q, tc.l, tc.runs)
			if d.admit != tc.admit {
				t.Fatalf("admit = %v, want %v (%+v)", d.admit, tc.admit, d)
			}
			if d.status != tc.status {
				t.Errorf("status = %d, want %d", d.status, tc.status)
			}
			if tc.reason != "" && !strings.Contains(d.reason, tc.reason) {
				t.Errorf("reason %q missing %q", d.reason, tc.reason)
			}
			if d.retryAfter != tc.retryAfter {
				t.Errorf("retryAfter = %v, want %v", d.retryAfter, tc.retryAfter)
			}
			if d.degraded != tc.degraded || d.fanMaxGroup != tc.fanMaxGroup {
				t.Errorf("degraded/fanMaxGroup = %v/%d, want %v/%d",
					d.degraded, d.fanMaxGroup, tc.degraded, tc.fanMaxGroup)
			}
		})
	}
}

// TestQuotaRetryEstimateClamps pins the estimate's bounds: 1s floor,
// 10m ceiling, and the cold-service 5s path when no completion rate
// has been measured yet.
func TestQuotaRetryEstimateClamps(t *testing.T) {
	cases := []struct {
		name    string
		backlog int64
		rate    float64
		want    time.Duration
	}{
		{"no backlog", 0, 100, time.Second},
		{"negative backlog", -5, 100, time.Second},
		{"cold service", 50, 0, 5 * time.Second},
		{"sub-second drain floors at 1s", 1, 1000, time.Second},
		{"huge backlog caps at 10m", 1 << 30, 0.1, 10 * time.Minute},
		{"mid-range uninflated", 30, 2, 15 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := retryEstimate(tc.backlog, tc.rate); got != tc.want {
				t.Fatalf("retryEstimate(%d, %v) = %v, want %v", tc.backlog, tc.rate, got, tc.want)
			}
		})
	}
}
