package telemetry

import (
	"expvar"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Progress tracks a campaign's live state. All mutators are safe for
// concurrent use by worker goroutines; Snapshot is safe to call from a
// heartbeat ticker or an expvar scrape at any time.
type Progress struct {
	total int64
	start time.Time

	completed    atomic.Int64 // runs that produced a result, computed or served from the store
	failed       atomic.Int64 // runs that exhausted their attempts
	retried      atomic.Int64 // retry attempts across all runs
	recordErrors atomic.Int64 // record-only failures (result kept, store append lost)

	// doneAt is set exactly once, when the campaign first accounts for
	// every run. Snapshot clamps its clock to it so Elapsed and
	// RunsPerSec freeze at their final values instead of drifting as a
	// finished campaign's expvar page keeps being scraped.
	doneAt atomic.Pointer[time.Time]
}

// NewProgress starts tracking a campaign of total runs beginning at
// start.
func NewProgress(total int, start time.Time) *Progress {
	p := &Progress{total: int64(total), start: start}
	p.noteDone() // a zero-run campaign is born finished
	return p
}

// noteDone freezes the completion timestamp the first time every run is
// accounted for. Called after every mutation that can finish the
// campaign; later calls are no-ops.
func (p *Progress) noteDone() {
	if p.doneAt.Load() != nil {
		return
	}
	if p.completed.Load()+p.failed.Load() >= p.total {
		now := time.Now()
		p.doneAt.CompareAndSwap(nil, &now)
	}
}

// RunCompleted records one successfully finished run.
func (p *Progress) RunCompleted() { p.completed.Add(1); p.noteDone() }

// RunFailed records one run that exhausted its attempts.
func (p *Progress) RunFailed() { p.failed.Add(1); p.noteDone() }

// Retried records one retry attempt.
func (p *Progress) Retried() { p.retried.Add(1) }

// RecordError records one record-only failure: the run's result is kept
// but its store append was lost.
func (p *Progress) RecordError() { p.recordErrors.Add(1) }

// Snapshot is one consistent-enough view of a campaign (counters are
// read individually; a heartbeat may straddle an update by one run).
type Snapshot struct {
	Total        int64
	Completed    int64
	Failed       int64
	Retried      int64
	RecordErrors int64

	Elapsed    time.Duration
	RunsPerSec float64
	// ETA extrapolates the remaining executed runs at the observed
	// rate; it is negative-free and zero when nothing remains or no
	// rate is measurable yet.
	ETA time.Duration
}

// Snapshot captures the campaign state as of now. Once the campaign
// has finished, now is clamped to the completion instant so repeated
// scrapes of a finished campaign report its final Elapsed and
// RunsPerSec instead of a growing clock and a decaying rate.
func (p *Progress) Snapshot(now time.Time) Snapshot {
	if d := p.doneAt.Load(); d != nil && now.After(*d) {
		now = *d
	}
	s := Snapshot{
		Total:        p.total,
		Completed:    p.completed.Load(),
		Failed:       p.failed.Load(),
		Retried:      p.retried.Load(),
		RecordErrors: p.recordErrors.Load(),
		Elapsed:      now.Sub(p.start),
	}
	executed := s.Completed + s.Failed
	if s.Elapsed > 0 && executed > 0 {
		s.RunsPerSec = float64(executed) / s.Elapsed.Seconds()
	}
	remaining := s.Total - executed
	if remaining > 0 && s.RunsPerSec > 0 {
		s.ETA = time.Duration(float64(remaining) / s.RunsPerSec * float64(time.Second))
	}
	return s
}

// Done reports whether every run is accounted for.
func (s Snapshot) Done() bool {
	return s.Completed+s.Failed >= s.Total
}

// String renders the snapshot as one heartbeat line.
func (s Snapshot) String() string {
	line := fmt.Sprintf("progress: %d/%d done, %d failed",
		s.Completed, s.Total, s.Failed)
	if s.Retried > 0 {
		line += fmt.Sprintf(", %d retried", s.Retried)
	}
	if s.RecordErrors > 0 {
		line += fmt.Sprintf(", %d record write failures", s.RecordErrors)
	}
	if s.RunsPerSec > 0 {
		line += fmt.Sprintf(", %.1f runs/s", s.RunsPerSec)
	}
	if s.ETA > 0 {
		line += fmt.Sprintf(", ETA %s", s.ETA.Round(time.Second))
	} else if s.Done() {
		line += fmt.Sprintf(", wall %s", s.Elapsed.Round(time.Millisecond))
	}
	return line
}

// currentProgress backs the process-wide expvar view: the most recently
// published campaign wins, which matches the one-campaign-per-process
// shape of the command-line tools.
var (
	currentProgress atomic.Pointer[Progress]
	publishOnce     sync.Once
)

// Publish exposes p as the process's live campaign on the expvar page
// (/debug/vars, key "pinte.campaign" — served over HTTP by the prof
// package's -debug endpoint). Idempotent; a later campaign's Publish
// replaces an earlier one's.
func (p *Progress) Publish() {
	currentProgress.Store(p)
	publishOnce.Do(func() {
		expvar.Publish("pinte.campaign", expvar.Func(func() any {
			cur := currentProgress.Load()
			if cur == nil {
				return nil
			}
			return cur.Snapshot(time.Now())
		}))
	})
}
