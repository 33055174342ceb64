package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestCollectorIntervals(t *testing.T) {
	start := Counters{Instrs: 1000, Cycles: 2000}
	c := NewCollector(100, 1000, 512, start)

	if got := c.NextAt(); got != 1100 {
		t.Fatalf("NextAt = %d, want 1100", got)
	}
	c.Record(Counters{
		Instrs: 1100, Cycles: 2200,
		L1DMisses: 10, L2Misses: 5, LLCMisses: 2,
		LLCOccupancy:   128,
		EngineAccesses: 40, EngineTriggers: 8, EngineEvictBudget: 30,
		EnginePromotions: 25, EngineInvalidations: 20,
	})
	c.Record(Counters{
		Instrs: 1250, Cycles: 2500,
		L1DMisses: 10, L2Misses: 5, LLCMisses: 2,
		LLCOccupancy:   256,
		EngineAccesses: 50, EngineTriggers: 8, EngineEvictBudget: 30,
		EnginePromotions: 25, EngineInvalidations: 20,
	})
	s := c.Series()
	if len(s.Intervals) != 2 {
		t.Fatalf("got %d intervals, want 2", len(s.Intervals))
	}

	iv := s.Intervals[0]
	if iv.EndInstrs != 1100 || iv.Instrs != 100 || iv.Cycles != 200 {
		t.Fatalf("interval 0 widths wrong: %+v", iv)
	}
	if iv.IPC != 0.5 {
		t.Fatalf("IPC = %v, want 0.5", iv.IPC)
	}
	if iv.L1DMPKI != 100 || iv.L2MPKI != 50 || iv.LLCMPKI != 20 {
		t.Fatalf("MPKI wrong: %+v", iv)
	}
	if iv.LLCOccupancyFrac != 0.25 {
		t.Fatalf("occupancy frac = %v, want 0.25", iv.LLCOccupancyFrac)
	}
	if iv.EngineTriggers != 8 || iv.EngineAccesses != 40 {
		t.Fatalf("engine deltas wrong: %+v", iv)
	}
	if got := iv.TriggerRate(); got != 0.2 {
		t.Fatalf("TriggerRate = %v, want 0.2", got)
	}

	// The second interval spans an overshoot (150 instrs) and must
	// difference against the first snapshot, not the start.
	iv = s.Intervals[1]
	if iv.Instrs != 150 || iv.L1DMPKI != 0 || iv.EngineAccesses != 10 || iv.EngineTriggers != 0 {
		t.Fatalf("interval 1 deltas wrong: %+v", iv)
	}

	acc, trig := s.TriggerTotals()
	if acc != 50 || trig != 8 {
		t.Fatalf("TriggerTotals = %d/%d, want 50/8", acc, trig)
	}
}

func TestCollectorTail(t *testing.T) {
	c := NewCollector(100, 300, 0, Counters{})
	c.Record(Counters{Instrs: 100, Cycles: 100})
	// No instructions since the boundary: Tail must record nothing.
	c.Tail(Counters{Instrs: 100, Cycles: 100})
	if got := len(c.Series().Intervals); got != 1 {
		t.Fatalf("empty tail recorded: %d intervals, want 1", got)
	}
	c.Tail(Counters{Instrs: 130, Cycles: 160, EngineAccesses: 3, EngineTriggers: 1})
	s := c.Series()
	if got := len(s.Intervals); got != 2 {
		t.Fatalf("tail not recorded: %d intervals, want 2", got)
	}
	if iv := s.Intervals[1]; iv.Instrs != 30 || iv.EngineTriggers != 1 {
		t.Fatalf("tail deltas wrong: %+v", iv)
	}
}

// TestCollectorRecordNoAllocs guards the zero-allocation contract: once
// constructed, steady-state sampling must not touch the heap, or the
// sim-loop AllocsPerRun guards would regress the moment telemetry is
// enabled.
func TestCollectorRecordNoAllocs(t *testing.T) {
	const every, n = 100, 50
	c := NewCollector(every, every*n, 512, Counters{})
	i := uint64(0)
	allocs := testing.AllocsPerRun(n-2, func() {
		i++
		c.Record(Counters{Instrs: i * every, Cycles: i * every * 2, EngineAccesses: i * 7})
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per sample, want 0", allocs)
	}
}

// TestCollectorRecordOverflowCoalesces pins the documented "calling
// early simply produces a short interval" contract against the buffer
// preallocation: Record calls arriving faster than the nominal rate
// must neither allocate (the zero-alloc contract) nor lose counts —
// the overflow coalesces into the final interval.
func TestCollectorRecordOverflowCoalesces(t *testing.T) {
	const every, roi = 100, 300 // capacity: 300/100+2 = 5 intervals
	start := Counters{Instrs: 1000}
	c := NewCollector(every, roi, 0, start)

	i := uint64(0)
	next := func() Counters {
		i++
		// Every call is "early": 10 instrs apart against a 100-instr
		// nominal interval, so 20 calls want 20 slots from a 5-cap buffer.
		return Counters{
			Instrs: start.Instrs + i*10, Cycles: i * 20,
			EngineAccesses: i * 3, EngineTriggers: i,
		}
	}
	var last Counters
	allocs := testing.AllocsPerRun(19, func() {
		last = next()
		c.Record(last)
	})
	if allocs != 0 {
		t.Fatalf("early Record allocates %.1f times per sample, want 0", allocs)
	}

	s := c.Series()
	if len(s.Intervals) > cap(s.Intervals) || cap(s.Intervals) != roi/every+2 {
		t.Fatalf("buffer grew: len %d cap %d, want cap %d", len(s.Intervals), cap(s.Intervals), roi/every+2)
	}
	var instrs uint64
	for _, iv := range s.Intervals {
		instrs += iv.Instrs
	}
	if want := last.Instrs - start.Instrs; instrs != want {
		t.Fatalf("interval instr sum = %d, want %d", instrs, want)
	}
	if end := s.Intervals[len(s.Intervals)-1].EndInstrs; end != last.Instrs {
		t.Fatalf("final EndInstrs = %d, want %d", end, last.Instrs)
	}
	if acc, trig := s.TriggerTotals(); acc != last.EngineAccesses || trig != last.EngineTriggers {
		t.Fatalf("TriggerTotals = %d/%d, want %d/%d", acc, trig, last.EngineAccesses, last.EngineTriggers)
	}
}

func TestProgressSnapshot(t *testing.T) {
	start := time.Unix(0, 0)
	p := NewProgress(10, start)
	for i := 0; i < 3; i++ {
		p.RunCompleted()
	}
	p.RunFailed()
	p.Retried()
	p.RecordError()

	s := p.Snapshot(start.Add(2 * time.Second))
	if s.Total != 10 || s.Completed != 3 || s.Failed != 1 || s.RecordErrors != 1 {
		t.Fatalf("snapshot counters wrong: %+v", s)
	}
	if s.RunsPerSec != 2 { // 4 executed over 2s
		t.Fatalf("RunsPerSec = %v, want 2", s.RunsPerSec)
	}
	if s.ETA != 3*time.Second { // 6 remaining at 2 runs/s
		t.Fatalf("ETA = %v, want 3s", s.ETA)
	}
	if s.Done() {
		t.Fatal("campaign reported done with 6 runs outstanding")
	}

	for i := 0; i < 6; i++ {
		p.RunCompleted()
	}
	s = p.Snapshot(start.Add(4 * time.Second))
	if !s.Done() {
		t.Fatalf("campaign not done: %+v", s)
	}
	if s.ETA != 0 {
		t.Fatalf("done campaign has ETA %v", s.ETA)
	}
	line := s.String()
	for _, want := range []string{"9/10 done", "1 failed", "1 retried", "1 record write failures"} {
		if !strings.Contains(line, want) {
			t.Errorf("heartbeat %q missing %q", line, want)
		}
	}
}

// TestProgressSnapshotFreezesAfterDone pins the expvar-staleness fix:
// once every run is accounted for, later scrapes must report the final
// Elapsed and RunsPerSec instead of a growing wall clock and a decaying
// rate. Uses the real clock because completion is stamped internally.
func TestProgressSnapshotFreezesAfterDone(t *testing.T) {
	p := NewProgress(2, time.Now())
	p.RunCompleted()
	p.RunFailed()

	s1 := p.Snapshot(time.Now().Add(time.Hour))
	s2 := p.Snapshot(time.Now().Add(2 * time.Hour))
	if !s1.Done() || !s2.Done() {
		t.Fatalf("campaign not done: %+v / %+v", s1, s2)
	}
	if s1.Elapsed != s2.Elapsed {
		t.Fatalf("Elapsed drifted after done: %v then %v", s1.Elapsed, s2.Elapsed)
	}
	if s1.RunsPerSec != s2.RunsPerSec || s1.RunsPerSec <= 0 {
		t.Fatalf("RunsPerSec not frozen: %v then %v", s1.RunsPerSec, s2.RunsPerSec)
	}
	if s1.Elapsed > time.Minute {
		t.Fatalf("Elapsed %v not clamped to completion time", s1.Elapsed)
	}

	// A campaign still in flight must keep using the caller's clock.
	q := NewProgress(2, time.Now())
	q.RunCompleted()
	if a, b := q.Snapshot(time.Now().Add(time.Second)), q.Snapshot(time.Now().Add(2*time.Second)); a.Elapsed == b.Elapsed {
		t.Fatalf("in-flight Elapsed frozen at %v", a.Elapsed)
	}
}
