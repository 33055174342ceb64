package cache

import "fmt"

// Front capture: the cache-side half of the fan-out sweep executor
// (internal/sim). Under a non-inclusive hierarchy with no prefetchers,
// the private levels (L1I, L1D, L2) and everything above them evolve
// identically across every P_Induce point of a sweep group: replacement
// in those levels depends only on the access order, fills happen on
// every miss regardless of where the data came from, and nothing below
// the L2 feeds back into them. Only the LLC (where the PInTE injector
// lives), the DRAM timing and the cycle accounting differ per point.
//
// A capture-mode hierarchy exploits that: it runs the front end once,
// stops every demand access at the L2 boundary, and records the sparse
// stream of accesses that would have gone below — each with its retiring
// instruction index, whether it descends to the LLC (L2 miss) and which
// dirty L2 victims it pushed down. Follower simulations then replay
// just that stream against their own private LLC + memory via
// DescendLLC / WritebackToLLC, reusing the exact production code for
// the levels that differ.

// FrontEvent is one demand access that left a core's L1 during a
// capture pass: the part of the access the front end cannot price
// point-independently. It is 16 bytes.
type FrontEvent struct {
	// Addr is the accessed data or fetch address.
	Addr uint64
	// Instr is the core's retiring-instruction index when the access
	// issued, as an offset from the batch base (see StartBatch).
	// Instrs increments after retirement, so base + Instr is the
	// zero-based index of the triggering trace record.
	Instr uint32
	// Kind is the demand access type (Load, StoreAccess, Ifetch).
	Kind AccessKind
	// Descend marks an L2 miss: the follower must run the below-L2 leg
	// (DescendLLC) to learn the access's latency.
	Descend bool
	// WBs counts the dirty L2 victims this access pushed toward the
	// LLC, in order, drawn from the capture's writeback address queue
	// (WritebackToLLC per address, after the descend).
	WBs uint8
}

// FrontCapture accumulates the events and writeback addresses of a
// capture pass. The executor swaps the backing slices out per batch and
// re-arms them itself (fanFront.rearm in internal/sim).
type FrontCapture struct {
	Events  []FrontEvent
	WBAddrs []uint64

	instrs *uint64
	base   uint64
	cur    FrontEvent
}

// StartBatch makes the driving core's current instruction index the
// base that later events' Instr offsets count from. The executor calls
// it before each batch; a batch must span fewer than 2^32 instructions.
func (c *FrontCapture) StartBatch() { c.base = *c.instrs }

func (c *FrontCapture) openEvent(addr uint64, kind AccessKind) {
	c.cur = FrontEvent{Instr: uint32(*c.instrs - c.base), Addr: addr, Kind: kind}
}

func (c *FrontCapture) markDescend() { c.cur.Descend = true }

func (c *FrontCapture) addWriteback(addr uint64) {
	c.cur.WBs++
	c.WBAddrs = append(c.WBAddrs, addr)
}

func (c *FrontCapture) closeEvent() { c.Events = append(c.Events, c.cur) }

// SetFrontCapture switches the hierarchy into capture mode: every
// demand access that misses a core's L1 is recorded into cap instead of
// descending past the L2, and the LLC and memory are never touched. The
// LLC's arrays are therefore released here for another machine to
// reuse; a later touch of the LLC panics like any use after release,
// while its Stats stay readable. instrs must point at the driving
// core's instruction counter (read at event-open time to stamp each
// event with its trace record index).
//
// Capture mode is only sound when the levels above the LLC cannot be
// influenced by it: the hierarchy must be non-inclusive (no
// back-invalidation, no exclusive dirty-bit coupling) and prefetcher-
// free (prefetchers probe and fill the LLC). Anything else is rejected.
func (h *Hierarchy) SetFrontCapture(cap *FrontCapture, instrs *uint64) error {
	if h.incl != NonInclusive {
		return fmt.Errorf("cache: front capture requires a non-inclusive hierarchy, have %v", h.incl)
	}
	for core := 0; core < h.cores; core++ {
		if h.pfL1I[core] != nil || h.pfL1D[core] != nil || h.pfL2[core] != nil {
			return fmt.Errorf("cache: front capture requires a prefetcher-free hierarchy")
		}
	}
	cap.instrs = instrs
	h.capture = cap
	h.llc.Release()
	return nil
}

// DescendLLC runs the below-L2 leg of a demand access — LLC lookup
// (where the PInTE injector fires, on hits and misses alike), the
// memory access and LLC fill on a miss, and dirty-victim writeback —
// and returns its latency. It is exactly the leg a capture-mode front
// skipped: now must be the issuing core's cycle count plus the L1 and
// L2 hit latencies, matching what the in-line access path would pass.
func (h *Hierarchy) DescendLLC(core int, addr, now uint64) uint64 {
	return h.fromLLC(core, addr, now)
}

// WritebackToLLC replays one dirty L2 victim's writeback fill into the
// LLC — the non-inclusive half of fillL2 a capture-mode front recorded
// instead of performing.
func (h *Hierarchy) WritebackToLLC(core int, addr uint64) {
	h.Stats.LLCWritebackFills++
	lv := h.llc.Fill(addr, core, true, false)
	h.handleLLCVictim(lv, 0)
}
