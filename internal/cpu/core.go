// Package cpu provides the interval core timing model that converts an
// instruction trace plus cache-hierarchy latencies into cycles, and the
// multi-core interleaver used for 2nd-Trace (multi-programmed) runs.
//
// The model is deliberately first-order — PInTE's metrics (IPC deltas,
// miss rates, AMAT, reuse) are dominated by miss counts and latencies —
// which is what makes the paper's all-pairs 2nd-Trace baseline tractable
// to reproduce: issue-width throughput, branch mispredict penalties,
// serialised dependent loads, and bounded overlap (MLP) for independent
// misses.
package cpu

import (
	"errors"
	"io"
	"math/bits"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/recycle"
	"repro/internal/trace"
)

// Config parameterises one core's timing model.
type Config struct {
	// Width is the issue width in instructions per cycle; 0 means 4.
	Width int
	// MispredictPenalty is the pipeline refill cost in cycles; 0 means 15.
	MispredictPenalty uint64
	// MLP divides the stall of independent (non-dependent) load misses,
	// modelling overlap among outstanding misses; 0 means 2.
	MLP int
}

// Resolved returns the config with its zero-value defaults applied —
// the exact parameters a Core built from it would run with. The fan-out
// follower (internal/sim), which prices instructions from a digest
// without constructing a Core, uses it to mirror the timing model.
func (c Config) Resolved() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Width == 0 {
		c.Width = 4
	}
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 15
	}
	if c.MLP == 0 {
		c.MLP = 2
	}
	return c
}

// Stats holds one core's execution counters.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
	Loads       uint64
	Stores      uint64
	LoadStall   uint64 // cycles charged to load misses
}

// BranchAccuracy returns the fraction of branches predicted correctly.
func (s *Stats) BranchAccuracy() float64 {
	if s.Branches == 0 {
		return 1
	}
	return 1 - float64(s.Mispredicts)/float64(s.Branches)
}

// batchSize is how many trace records a core pulls per refill when its
// reader supports batching: large enough to amortise the dispatch, small
// enough (batchSize × 48B ≈ 12KB) to stay cache-resident.
const batchSize = 256

// Core executes a trace against a hierarchy.
type Core struct {
	ID int

	cfg    Config
	reader trace.Reader
	batch  trace.BatchReader // non-nil when reader supports batching
	slice  trace.SliceReader // non-nil when reader hands out decoded views
	hier   *cache.Hierarchy
	bp     branch.Predictor

	Cycles uint64
	Instrs uint64
	Stats  Stats

	widthAcc int
	l1dLat   uint64
	l1iLat   uint64
	// mlpShift replaces the MLP division with a shift when MLP is a
	// power of two (the common configurations: 1, 2, 4, 8); -1 otherwise.
	mlpShift int
	done     bool
	err      error
	rec      trace.Record

	// Fetch-block cache: fetchBlk is the cache block of the previous
	// instruction fetch and fetchGen the L1I generation observed right
	// after it. While both still match, a fetch is a guaranteed L1I hit
	// at the hit latency (zero front-end stall) and — because the fetch
	// path was hit-neutral when the snapshot was taken (see
	// Hierarchy.IfetchFastOK) — the full access walk can be skipped.
	// Only the L1I's own access counters diverge; nothing reads them
	// per-fetch.
	l1i      *cache.Cache
	fetchBlk uint64
	fetchGen uint64

	// dataFast arms the L1D repeat-hit fast path (Hierarchy.FastData):
	// loads and stores that repeat the previous hit in their set settle
	// at the L1D hit latency without walking the access path. Fixed at
	// construction — it depends only on the prefetcher configuration.
	dataFast bool

	// recs[recPos:recLen] is the pending slice of the current batch. On
	// the batch path recs is the core's own refill buffer; on the slice
	// path it aliases an externally-owned decoded batch (a fan-out
	// view), read-only and valid until the next NextSlice call.
	recs   []trace.Record
	recPos int
	recLen int
}

// NewCore builds a core. bp may be nil for a perfect branch predictor.
func NewCore(id int, cfg Config, r trace.Reader, h *cache.Hierarchy, bp branch.Predictor) *Core {
	c := &Core{
		ID:       id,
		cfg:      cfg.withDefaults(),
		reader:   r,
		hier:     h,
		bp:       bp,
		l1dLat:   h.L1D(id).HitLatency(),
		l1iLat:   h.L1I(id).HitLatency(),
		l1i:      h.L1I(id),
		fetchBlk: ^uint64(0),
		dataFast: h.DataFastOK(id),
	}
	if sr, ok := r.(trace.SliceReader); ok {
		// Zero-copy path: the reader owns the decode buffer (one decode
		// shared across a fan-out group); the core just walks its views.
		c.slice = sr
	} else if br, ok := r.(trace.BatchReader); ok {
		c.batch = br
		c.recs = recycle.Get[trace.Record](batchSize)
	}
	c.mlpShift = -1
	if mlp := c.cfg.MLP; mlp&(mlp-1) == 0 {
		c.mlpShift = bits.TrailingZeros(uint(mlp))
	}
	return c
}

// Release hands the core's batch buffer back for the next core (see
// internal/recycle); the core is unusable afterwards. Only the batch path
// owns its buffer: a slice-path core's records belong to its reader.
// Releasing twice is harmless.
func (c *Core) Release() {
	if c.batch != nil {
		recycle.Put(c.recs)
	}
	c.recs = nil
	c.recPos, c.recLen = 0, 0
}

// Done reports whether the core's trace is exhausted.
func (c *Core) Done() bool { return c.done }

// Err returns the first non-EOF reader error, if any.
func (c *Core) Err() error { return c.err }

// IPC returns instructions per cycle so far.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instrs) / float64(c.Cycles)
}

// Rewind restarts the core's trace (used by the 2nd-Trace driver to
// restart a faster co-runner, as ChampSim does). The core's cycle and
// instruction counts keep accumulating.
func (c *Core) Rewind() bool {
	rw, ok := c.reader.(trace.Rewinder)
	if !ok {
		return false
	}
	rw.Rewind()
	c.done = false
	c.recPos, c.recLen = 0, 0 // discard records buffered past the rewind
	return true
}

// SkipInstrs fast-forwards the core's trace by up to n records without
// simulating them: no cycles accrue, no cache or predictor state
// changes, and Instrs stays put — callers account for skipped work
// themselves. Buffered records are consumed first; a reader
// implementing trace.Skipper then seeks directly (O(1) on a recorded
// replay stream); anything else is read and discarded. Returns how
// many records were skipped, short only when the trace ends.
func (c *Core) SkipInstrs(n uint64) uint64 {
	var skipped uint64
	if avail := uint64(c.recLen - c.recPos); avail > 0 {
		take := avail
		if take > n {
			take = n
		}
		c.recPos += int(take)
		skipped += take
	}
	if sk, ok := c.reader.(trace.Skipper); ok && skipped < n && !c.done && c.err == nil {
		got, err := sk.Skip(n - skipped)
		skipped += got
		if err != nil {
			if errors.Is(err, io.EOF) {
				c.done = true
			} else {
				c.err = err
			}
		}
	}
	for skipped < n && !c.done && c.err == nil {
		want := n - skipped
		var m int
		var err error
		switch {
		case c.slice != nil:
			var view []trace.Record
			view, err = c.slice.NextSlice()
			if m = len(view); uint64(m) > want {
				// Keep the view's tail buffered for the next Step.
				c.recs, c.recLen, c.recPos = view, m, int(want)
				m = int(want)
			}
		case c.batch != nil:
			if want > uint64(len(c.recs)) {
				want = uint64(len(c.recs))
			}
			m, err = c.batch.NextBatch(c.recs[:want])
		default:
			err = c.reader.Next(&c.rec)
			if err == nil {
				m = 1
			}
		}
		if m == 0 {
			if err == nil || errors.Is(err, io.EOF) {
				c.done = true
			} else {
				c.err = err
			}
			break
		}
		skipped += uint64(m)
	}
	// The fetch-block memo refers to the instruction before the seek;
	// drop it so the first post-seek fetch walks the hierarchy.
	c.fetchBlk = ^uint64(0)
	return skipped
}

// Step executes up to n instructions and returns how many ran. It stops
// early when the trace ends (Done becomes true) or a read error occurs.
func (c *Core) Step(n uint64) uint64 {
	if c.done || c.err != nil {
		return 0
	}
	if c.batch != nil || c.slice != nil {
		return c.stepBatched(n)
	}
	var executed uint64
	for ; executed < n; executed++ {
		if err := c.reader.Next(&c.rec); err != nil {
			if errors.Is(err, io.EOF) {
				c.done = true
			} else {
				c.err = err
			}
			break
		}
		c.retire(&c.rec)
	}
	return executed
}

// stepBatched is Step over a BatchReader: records are pulled batchSize at
// a time, so the per-instruction cost is one direct retire call instead
// of an interface dispatch plus error check.
func (c *Core) stepBatched(n uint64) uint64 {
	var executed uint64
	for executed < n {
		if c.recPos >= c.recLen {
			var m int
			var err error
			if c.slice != nil {
				var view []trace.Record
				view, err = c.slice.NextSlice()
				if m = len(view); m > 0 {
					c.recs = view
				}
			} else {
				m, err = c.batch.NextBatch(c.recs)
			}
			if m == 0 {
				if err == nil || errors.Is(err, io.EOF) {
					c.done = true
				} else {
					c.err = err
				}
				break
			}
			c.recLen, c.recPos = m, 0
		}
		// Retire the buffered records, at most n in total.
		avail := uint64(c.recLen - c.recPos)
		if rem := n - executed; avail > rem {
			avail = rem
		}
		for i := uint64(0); i < avail; i++ {
			c.retire(&c.recs[c.recPos])
			c.recPos++
		}
		executed += avail
	}
	return executed
}

func (c *Core) retire(rec *trace.Record) {
	// Front-end: instruction fetch. A miss past the L1I stalls the
	// front end for the excess latency. Fetches into the same block as
	// the previous instruction skip the walk while the L1I is unchanged:
	// the block is resident (the previous fetch hit it or filled it), so
	// the fetch hits at the L1I latency and stalls nothing.
	if blk := rec.PC / cache.BlockBytes; blk != c.fetchBlk || c.l1i.Gen() != c.fetchGen {
		il := c.hier.Access(c.ID, rec.PC, rec.PC, cache.Ifetch, c.Cycles)
		if il > c.l1iLat {
			c.Cycles += il - c.l1iLat
		}
		if c.hier.IfetchFastOK(c.ID) {
			c.fetchBlk, c.fetchGen = blk, c.l1i.Gen()
		} else {
			c.fetchBlk = ^uint64(0)
		}
	}

	// Issue-width throughput: one cycle per Width instructions.
	c.widthAcc++
	if c.widthAcc >= c.cfg.Width {
		c.widthAcc = 0
		c.Cycles++
	}

	if rec.IsBranch {
		c.Stats.Branches++
		if c.bp != nil {
			pred := c.bp.Predict(rec.PC)
			c.bp.Update(rec.PC, rec.Taken)
			if pred != rec.Taken {
				c.Stats.Mispredicts++
				c.Cycles += c.cfg.MispredictPenalty
			}
		}
	}

	if rec.Load0 != 0 {
		c.Stats.Loads++
		c.loadStall(rec.PC, rec.Load0, rec.Dependent)
	}
	if rec.Load1 != 0 {
		c.Stats.Loads++
		c.loadStall(rec.PC, rec.Load1, false)
	}
	if rec.Store != 0 {
		c.Stats.Stores++
		// Stores retire through the write buffer: cache state updates
		// but no retirement stall is charged.
		if !(c.dataFast && c.hier.FastData(c.ID, rec.Store, true)) {
			c.hier.Access(c.ID, rec.PC, rec.Store, cache.StoreAccess, c.Cycles)
		}
	}

	c.Instrs++
}

func (c *Core) loadStall(pc, addr uint64, dependent bool) {
	if c.dataFast && c.hier.FastData(c.ID, addr, false) {
		return // repeat L1D hit: settles at the hit latency, no stall
	}
	lat := c.hier.Access(c.ID, pc, addr, cache.Load, c.Cycles)
	if lat <= c.l1dLat {
		return
	}
	stall := lat - c.l1dLat
	if !dependent {
		if c.mlpShift >= 0 {
			stall >>= uint(c.mlpShift)
		} else {
			stall /= uint64(c.cfg.MLP)
		}
	}
	c.Cycles += stall
	c.Stats.LoadStall += stall
}

// ResetStats zeroes the core's event counters while leaving its trace
// position, predictor state and — critically — its clock intact: cycle
// and instruction counts are physical time shared with the DRAM model's
// bank timestamps, so region-of-interest metrics are computed as deltas
// rather than by resetting them.
func (c *Core) ResetStats() {
	c.Stats = Stats{}
}
