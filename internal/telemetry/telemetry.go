// Package telemetry is the simulator's observability layer: interval
// time-series collected on the simulation hot path without allocating,
// a P_Induce calibration audit (realized vs configured trigger rate),
// live campaign progress tracking for long sweeps, and the metrics tree
// (expvar "pinte") that serves every process-wide counter.
//
// The package is a leaf: it never imports the simulator. Producers hand
// it plain counter snapshots (Counters) and it differentiates them into
// per-interval samples (Interval) inside buffers preallocated at
// construction, so enabling collection keeps the inner simulation loop
// at zero heap allocations.
package telemetry

// Counters is a point-in-time snapshot of the cumulative counters the
// collector differentiates into intervals. The producing loop fills one
// on the stack per sample boundary; the collector copies what it needs
// and never retains the argument.
type Counters struct {
	Instrs uint64
	Cycles uint64

	// Per-level demand misses for the observed core.
	L1DMisses uint64
	L2Misses  uint64
	LLCMisses uint64

	// LLCOccupancy is the number of LLC blocks the observed core holds.
	LLCOccupancy uint64

	// PInTE engine activity (zero when no engine is attached).
	EngineAccesses      uint64
	EngineTriggers      uint64
	EngineEvictBudget   uint64
	EnginePromotions    uint64
	EngineInvalidations uint64
}

// Interval is one collected sample: deltas (and derived rates) between
// two counter snapshots.
type Interval struct {
	// EndInstrs is the cumulative primary-core instruction count at the
	// interval's end; Instrs and Cycles are the interval's own widths.
	EndInstrs uint64
	Instrs    uint64
	Cycles    uint64

	IPC float64

	// Per-level misses per kilo-instruction over the interval.
	L1DMPKI float64
	L2MPKI  float64
	LLCMPKI float64

	// LLCOccupancyFrac is the observed core's share of LLC blocks at
	// the interval's end.
	LLCOccupancyFrac float64

	// PInTE engine activity over the interval.
	EngineAccesses      uint64
	EngineTriggers      uint64
	EngineEvictBudget   uint64
	EnginePromotions    uint64
	EngineInvalidations uint64
}

// TriggerRate returns the interval's realized induction rate (triggers
// per engine-observed LLC access), or 0 for an access-free interval.
func (iv Interval) TriggerRate() float64 {
	if iv.EngineAccesses == 0 {
		return 0
	}
	return float64(iv.EngineTriggers) / float64(iv.EngineAccesses)
}

// Series is a run's collected interval time-series.
type Series struct {
	// Every is the nominal sampling interval in instructions; a single
	// interval can span more when the producer's scheduling quantum
	// overshoots a boundary.
	Every     uint64
	Intervals []Interval
}

// TriggerTotals sums engine accesses and triggers across the series.
// With a tail flush (Collector.Tail) they equal the engine's own ROI
// totals, which is what the calibration audit cross-checks.
func (s *Series) TriggerTotals() (accesses, triggers uint64) {
	for i := range s.Intervals {
		accesses += s.Intervals[i].EngineAccesses
		triggers += s.Intervals[i].EngineTriggers
	}
	return accesses, triggers
}

// Collector accumulates a Series from counter snapshots. Construct it
// at the start of the measured region with the region's opening
// snapshot; the interval buffer is sized up front so steady-state
// Record calls never allocate.
type Collector struct {
	every     uint64
	capBlocks uint64
	nextAt    uint64
	prev      Counters
	// lastBase is the snapshot that opened the most recently appended
	// interval; when the preallocated buffer is full, record coalesces
	// the overflow into that interval instead of growing the slice.
	lastBase Counters
	series   Series
}

// NewCollector builds a collector sampling every `every` instructions
// across a region of roiInstrs, starting from snapshot start.
// llcCapacityBlocks converts occupancy counts into fractions; 0 leaves
// LLCOccupancyFrac at 0.
func NewCollector(every, roiInstrs, llcCapacityBlocks uint64, start Counters) *Collector {
	if every == 0 {
		every = 1
	}
	c := &Collector{every: every, capBlocks: llcCapacityBlocks, prev: start, lastBase: start}
	c.nextAt = start.Instrs + every
	// +2: one slot for a final partial boundary, one for the tail flush.
	c.series = Series{
		Every:     every,
		Intervals: make([]Interval, 0, roiInstrs/every+2),
	}
	return c
}

// NextAt returns the instruction count at which the next sample is due;
// the producer compares against it before building a Counters snapshot
// so the common no-sample path stays a single comparison.
func (c *Collector) NextAt() uint64 { return c.nextAt }

// Record closes the current interval at snapshot cur and schedules the
// next boundary. Callers gate on NextAt; calling early simply produces
// a short interval. If early calls outrun the buffer preallocated for
// roiInstrs/every boundaries, the newest samples coalesce into the last
// interval — totals stay exact and no allocation happens.
func (c *Collector) Record(cur Counters) {
	c.record(cur)
	c.nextAt = cur.Instrs + c.every
}

// Tail flushes the remainder since the last boundary as a final partial
// interval, so interval sums match the region's cumulative totals. A
// remainder with no retired instructions is dropped.
func (c *Collector) Tail(cur Counters) {
	if cur.Instrs > c.prev.Instrs {
		c.record(cur)
	}
}

func (c *Collector) record(cur Counters) {
	if ivs := c.series.Intervals; len(ivs) == cap(ivs) && len(ivs) > 0 {
		// Buffer full: drop the last interval and rebuild it spanning
		// from its own base to cur. Sums over the series stay exact;
		// only the tail's time resolution degrades.
		c.series.Intervals = ivs[:len(ivs)-1]
		c.prev = c.lastBase
	}
	p := c.prev
	iv := Interval{
		EndInstrs: cur.Instrs,
		Instrs:    cur.Instrs - p.Instrs,
		Cycles:    cur.Cycles - p.Cycles,

		EngineAccesses:      cur.EngineAccesses - p.EngineAccesses,
		EngineTriggers:      cur.EngineTriggers - p.EngineTriggers,
		EngineEvictBudget:   cur.EngineEvictBudget - p.EngineEvictBudget,
		EnginePromotions:    cur.EnginePromotions - p.EnginePromotions,
		EngineInvalidations: cur.EngineInvalidations - p.EngineInvalidations,
	}
	if iv.Cycles > 0 {
		iv.IPC = float64(iv.Instrs) / float64(iv.Cycles)
	}
	if ki := float64(iv.Instrs) / 1000; ki > 0 {
		iv.L1DMPKI = float64(cur.L1DMisses-p.L1DMisses) / ki
		iv.L2MPKI = float64(cur.L2Misses-p.L2Misses) / ki
		iv.LLCMPKI = float64(cur.LLCMisses-p.LLCMisses) / ki
	}
	if c.capBlocks > 0 {
		iv.LLCOccupancyFrac = float64(cur.LLCOccupancy) / float64(c.capBlocks)
	}
	c.series.Intervals = append(c.series.Intervals, iv)
	c.lastBase = p
	c.prev = cur
}

// Series returns the collected time-series. The collector keeps owning
// the backing array; call it once, after the region ends.
func (c *Collector) Series() *Series { return &c.series }
