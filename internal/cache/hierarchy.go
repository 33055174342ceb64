package cache

import (
	"fmt"

	"repro/internal/prefetch"
	"repro/internal/replacement"
)

// Inclusion selects how the LLC maintains copies relative to the private
// levels (§III-C b of the paper).
type Inclusion int

const (
	// NonInclusive fills every level on a miss but never enforces
	// subset or disjointness (the paper's Skylake default).
	NonInclusive Inclusion = iota
	// Inclusive enforces LLC ⊇ L1 ∪ L2 by back-invalidating private
	// copies when an LLC block is evicted.
	Inclusive
	// Exclusive keeps LLC ∩ L2 = ∅: the LLC is a victim cache filled
	// by L2 evictions; LLC hits move the block up and vacate the slot.
	Exclusive
)

// String returns the paper's short code for the inclusion mode.
func (i Inclusion) String() string {
	switch i {
	case NonInclusive:
		return "no"
	case Inclusive:
		return "in"
	case Exclusive:
		return "ex"
	}
	return fmt.Sprintf("Inclusion(%d)", int(i))
}

// ParseInclusion converts the paper's code ("no", "in", "ex") to an
// Inclusion.
func ParseInclusion(s string) (Inclusion, error) {
	switch s {
	case "no":
		return NonInclusive, nil
	case "in":
		return Inclusive, nil
	case "ex":
		return Exclusive, nil
	}
	return 0, fmt.Errorf("cache: unknown inclusion policy %q", s)
}

// AccessKind distinguishes the demand access types entering the
// hierarchy.
type AccessKind uint8

const (
	// Load is a demand data read.
	Load AccessKind = iota
	// StoreAccess is a demand data write (write-allocate).
	StoreAccess
	// Ifetch is an instruction fetch through the L1I.
	Ifetch
)

// LevelConfig configures one cache level.
type LevelConfig struct {
	SizeBytes int
	Ways      int
	// HitLatency is the incremental latency of reaching this level
	// beyond the previous one; a hit's total latency is the sum of
	// increments along the path.
	HitLatency uint64
	// Policy is the replacement policy name; "" means LRU.
	Policy string
}

func (lc LevelConfig) build(name string, cores int, seed uint64) (*Cache, error) {
	polName := lc.Policy
	if polName == "" {
		polName = "lru"
	}
	pol, err := replacement.New(polName, seed)
	if err != nil {
		return nil, err
	}
	return New(Config{
		Name:       name,
		SizeBytes:  lc.SizeBytes,
		Ways:       lc.Ways,
		HitLatency: lc.HitLatency,
		Policy:     pol,
		Cores:      cores,
	})
}

// Memory is the backing store below the LLC.
type Memory interface {
	// Access services a request starting at time now and returns its
	// latency in cycles.
	Access(now, addr uint64, isWrite bool) uint64
}

// HierarchyConfig configures the full cache hierarchy.
type HierarchyConfig struct {
	Cores     int
	L1I       LevelConfig
	L1D       LevelConfig
	L2        LevelConfig
	LLC       LevelConfig
	Inclusion Inclusion
	// Prefetch is the paper's 3-character permutation string over
	// {L1I, L1D, L2}; "" means "000" (no prefetching).
	Prefetch string
	// Seed feeds randomised replacement policies.
	Seed uint64
}

// DefaultConfig returns the paper's §III-A machine: 32KB L1s, 512KB L2,
// 4MB 16-way LLC, non-inclusive, no prefetching.
func DefaultConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		L1I:   LevelConfig{SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		L1D:   LevelConfig{SizeBytes: 32 << 10, Ways: 8, HitLatency: 4},
		L2:    LevelConfig{SizeBytes: 512 << 10, Ways: 8, HitLatency: 10},
		LLC:   LevelConfig{SizeBytes: 4 << 20, Ways: 16, HitLatency: 30},
	}
}

// HierarchyStats aggregates cross-level counters.
type HierarchyStats struct {
	// DemandDataAccesses / DemandDataLatency accumulate per-core AMAT
	// inputs over demand loads and stores entering the L1D.
	DemandDataAccesses []uint64
	DemandDataLatency  []uint64

	// LLCDemandFills and LLCWritebackFills split LLC insertions by
	// origin; a writeback-dominated mix marks the "L2 spill" workloads
	// of Fig 6b.
	LLCDemandFills    uint64
	LLCWritebackFills uint64

	// PrefetchIssued and PrefetchFromDRAM track prefetch traffic;
	// their ratio to useful prefetches feeds the Fig 11 prefetch row.
	PrefetchIssued   uint64
	PrefetchFromDRAM uint64
}

// Hierarchy is one multi-core cache hierarchy: private L1I/L1D/L2 per
// core, one shared LLC, one shared Memory.
type Hierarchy struct {
	cfg   HierarchyConfig
	cores int
	l1i   []*Cache
	l1d   []*Cache
	l2    []*Cache
	llc   *Cache
	mem   Memory
	incl  Inclusion

	pfL1I []prefetch.Prefetcher
	pfL1D []prefetch.Prefetcher
	pfL2  []prefetch.Prefetcher
	pfBuf []uint64

	// exclDirty carries the dirty bit of a block extracted from an
	// exclusive LLC up to the L2 fill that follows it.
	exclDirty bool

	// capture, when non-nil, puts the hierarchy in front-capture mode
	// (see front.go): demand accesses stop at the L2 boundary and the
	// below-L2 work is recorded for fan-out followers to replay.
	capture *FrontCapture

	Stats HierarchyStats
}

// NewHierarchy builds a hierarchy over mem.
func NewHierarchy(cfg HierarchyConfig, mem Memory) (*Hierarchy, error) {
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if mem == nil {
		return nil, fmt.Errorf("cache: hierarchy requires a memory")
	}
	h := &Hierarchy{cfg: cfg, cores: cfg.Cores, mem: mem, incl: cfg.Inclusion}
	code := cfg.Prefetch
	if code == "" {
		code = "000"
	}
	for core := 0; core < cfg.Cores; core++ {
		seed := cfg.Seed + uint64(core)*0x5deece66d
		l1i, err := cfg.L1I.build(fmt.Sprintf("L1I%d", core), cfg.Cores, seed)
		if err != nil {
			return nil, err
		}
		l1d, err := cfg.L1D.build(fmt.Sprintf("L1D%d", core), cfg.Cores, seed+1)
		if err != nil {
			return nil, err
		}
		l2, err := cfg.L2.build(fmt.Sprintf("L2_%d", core), cfg.Cores, seed+2)
		if err != nil {
			return nil, err
		}
		// Only the LLC's reuse histogram is ever reported; skipping the
		// per-hit stack-position walk on the private levels keeps their
		// hit path to a plain replacement-state touch.
		l1i.SkipReuseHist()
		l1d.SkipReuseHist()
		l2.SkipReuseHist()
		h.l1i = append(h.l1i, l1i)
		h.l1d = append(h.l1d, l1d)
		h.l2 = append(h.l2, l2)

		pi, pd, p2, err := prefetch.Build(code)
		if err != nil {
			return nil, err
		}
		// Absent prefetchers are stored as nil so the access path can
		// skip the training call entirely instead of dispatching into a
		// no-op on every reference.
		h.pfL1I = append(h.pfL1I, elideNone(pi))
		h.pfL1D = append(h.pfL1D, elideNone(pd))
		h.pfL2 = append(h.pfL2, elideNone(p2))
	}
	llc, err := cfg.LLC.build("LLC", cfg.Cores, cfg.Seed+0xc0ffee)
	if err != nil {
		return nil, err
	}
	h.llc = llc
	h.Stats.DemandDataAccesses = make([]uint64, cfg.Cores)
	h.Stats.DemandDataLatency = make([]uint64, cfg.Cores)
	return h, nil
}

// elideNone maps the no-op prefetcher to nil.
func elideNone(p prefetch.Prefetcher) prefetch.Prefetcher {
	if _, ok := p.(prefetch.None); ok {
		return nil
	}
	return p
}

// IfetchFastOK reports whether core's instruction-fetch path is
// hit-neutral right now: a repeat fetch of a still-resident block has no
// effect beyond the L1I's own counters — no observer, no injector, and no
// prefetcher that trains on hits (NextLine only acts on misses). The core
// front end checks this before arming its fetch-block fast path; any
// later observer/injector attachment bumps the L1I's generation and
// forces the check to rerun.
func (h *Hierarchy) IfetchFastOK(core int) bool {
	if !h.l1i[core].passive() {
		return false
	}
	switch h.pfL1I[core].(type) {
	case nil, *prefetch.NextLine:
		return true
	}
	return false
}

// DataFastOK reports whether core's L1D repeat-hit fast path (FastData)
// is permitted: no L1D prefetcher that trains on hits may be attached.
// The prefetcher set is fixed at construction, so the result is stable
// for the hierarchy's lifetime (unlike IfetchFastOK, no generation check
// is needed — FastData itself verifies the memo before acting).
func (h *Hierarchy) DataFastOK(core int) bool {
	switch h.pfL1D[core].(type) {
	case nil, *prefetch.NextLine:
		return true
	}
	return false
}

// FastData attempts the L1D repeat-hit fast path for a demand load or
// store: when the access repeats the set's memoised hit, the full hit
// accounting (cache counters, observer/injector, AMAT inputs) runs at
// the L1D hit latency — which implies zero retirement stall — and
// FastData reports true. Callers must check DataFastOK once up front.
func (h *Hierarchy) FastData(core int, addr uint64, isWrite bool) bool {
	l1 := h.l1d[core]
	if !l1.TryRepeatHit(addr, core, isWrite) {
		return false
	}
	h.Stats.DemandDataAccesses[core]++
	h.Stats.DemandDataLatency[core] += l1.cfg.HitLatency
	return true
}

// MustNewHierarchy is NewHierarchy that panics on configuration errors.
func MustNewHierarchy(cfg HierarchyConfig, mem Memory) *Hierarchy {
	h, err := NewHierarchy(cfg, mem)
	if err != nil {
		panic(err)
	}
	return h
}

// Release recycles every level's arrays (see Cache.Release); the
// hierarchy is unusable afterwards, while its Stats stay readable. Only
// the goroutine that built the hierarchy releases it, once its run is
// over; releasing twice is harmless.
func (h *Hierarchy) Release() {
	h.ReleasePrivate()
	h.llc.Release()
}

// ReleasePrivate recycles every core's L1I, L1D and L2 arrays, leaving
// only the LLC live: the below-L2 half of a fan-out digest follower
// (DescendLLC, WritebackToLLC) never touches the private levels. A later
// access through them panics like any use after release; their Stats
// and hit latencies stay readable.
func (h *Hierarchy) ReleasePrivate() {
	for core := 0; core < h.cores; core++ {
		h.l1i[core].Release()
		h.l1d[core].Release()
		h.l2[core].Release()
	}
}

// LLC returns the shared last-level cache (the PInTE attachment point).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L1D returns core's private L1 data cache.
func (h *Hierarchy) L1D(core int) *Cache { return h.l1d[core] }

// L1I returns core's private L1 instruction cache.
func (h *Hierarchy) L1I(core int) *Cache { return h.l1i[core] }

// L2 returns core's private L2 cache.
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// Cores returns the number of cores the hierarchy serves.
func (h *Hierarchy) Cores() int { return h.cores }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// AMAT returns core's average demand data access time in cycles.
func (h *Hierarchy) AMAT(core int) float64 {
	n := h.Stats.DemandDataAccesses[core]
	if n == 0 {
		return 0
	}
	return float64(h.Stats.DemandDataLatency[core]) / float64(n)
}

// Access performs a demand access for core starting at time now and
// returns its latency. pc is the requesting instruction's address
// (consumed by prefetcher training).
func (h *Hierarchy) Access(core int, pc, addr uint64, kind AccessKind, now uint64) uint64 {
	l1 := h.l1d[core]
	pf := h.pfL1D[core]
	isWrite := kind == StoreAccess
	if kind == Ifetch {
		l1 = h.l1i[core]
		pf = h.pfL1I[core]
	}
	lat := l1.HitLatency()
	hit := l1.Lookup(addr, core, isWrite)
	if !hit {
		if h.capture != nil {
			h.capture.openEvent(addr, kind)
		}
		lat += h.fromL2(core, pc, addr, now+lat)
		h.fillL1(core, l1, addr, isWrite)
		if h.capture != nil {
			h.capture.closeEvent()
		}
	}
	if pf != nil {
		h.runPrefetch(core, 1, pf, pc, addr, !hit, now)
	}
	if kind != Ifetch {
		h.Stats.DemandDataAccesses[core]++
		h.Stats.DemandDataLatency[core] += lat
	}
	return lat
}

// fromL2 continues a demand miss below the L1.
func (h *Hierarchy) fromL2(core int, pc, addr uint64, now uint64) uint64 {
	l2 := h.l2[core]
	lat := l2.HitLatency()
	hit := l2.Lookup(addr, core, false)
	if !hit {
		if h.capture != nil {
			// Capture mode: the LLC (and everything below) is per-point
			// state a follower replays via DescendLLC; record the descent
			// and add a latency nobody reads (the front's clock is not a
			// point's clock).
			h.capture.markDescend()
			lat += h.llc.HitLatency()
		} else {
			lat += h.fromLLC(core, addr, now+lat)
		}
		h.fillL2(core, addr, false)
	}
	if pf := h.pfL2[core]; pf != nil {
		h.runPrefetch(core, 2, pf, pc, addr, !hit, now)
	}
	return lat
}

// fromLLC continues a demand miss below the L2. The PInTE injector, when
// attached, runs inside llc.Lookup on both hits and misses.
func (h *Hierarchy) fromLLC(core int, addr uint64, now uint64) uint64 {
	lat := h.llc.HitLatency()
	if h.llc.Lookup(addr, core, false) {
		if h.incl == Exclusive {
			// The block moves up to the private levels; its dirty
			// state travels with it (restored by fillL2).
			if dirty, ok := h.llc.Extract(addr); ok && dirty {
				h.exclDirty = true
			}
		}
		return lat
	}
	lat += h.mem.Access(now+lat, addr, false)
	if h.incl != Exclusive {
		h.Stats.LLCDemandFills++
		v := h.llc.Fill(addr, core, false, false)
		h.handleLLCVictim(v, now)
	}
	return lat
}

// fillL1 inserts addr into core's L1, pushing dirty victims into L2.
func (h *Hierarchy) fillL1(core int, l1 *Cache, addr uint64, dirty bool) {
	v := l1.Fill(addr, core, dirty, false)
	if v.Valid && v.Dirty {
		h.fillL2(core, v.Addr, true)
	}
}

// fillL2 inserts addr into core's L2 (dirty for writeback allocations),
// pushing victims toward the LLC per the inclusion mode.
func (h *Hierarchy) fillL2(core int, addr uint64, dirty bool) {
	if h.exclDirty {
		dirty = true
		h.exclDirty = false
	}
	v := h.l2[core].Fill(addr, core, dirty, false)
	if !v.Valid {
		return
	}
	switch h.incl {
	case Exclusive:
		// Victim cache: every L2 eviction allocates in the LLC.
		h.Stats.LLCWritebackFills++
		lv := h.llc.Fill(v.Addr, core, v.Dirty, false)
		h.handleLLCVictim(lv, 0)
	default:
		// Inclusive / non-inclusive: only dirty victims travel down.
		if v.Dirty {
			if h.capture != nil {
				h.capture.addWriteback(v.Addr)
				return
			}
			h.Stats.LLCWritebackFills++
			lv := h.llc.Fill(v.Addr, core, true, false)
			h.handleLLCVictim(lv, 0)
		}
	}
}

// handleLLCVictim writes dirty LLC victims to memory and, in inclusive
// mode, back-invalidates the owner's private copies.
func (h *Hierarchy) handleLLCVictim(v Victim, now uint64) {
	if !v.Valid {
		return
	}
	dirty := v.Dirty
	if h.incl == Inclusive {
		owner := v.Owner
		if owner >= 0 && owner < h.cores {
			if _, d := h.l1i[owner].InvalidateAddr(v.Addr); d {
				dirty = true
			}
			if _, d := h.l1d[owner].InvalidateAddr(v.Addr); d {
				dirty = true
			}
			if _, d := h.l2[owner].InvalidateAddr(v.Addr); d {
				dirty = true
			}
		}
	}
	if dirty {
		h.mem.Access(now, v.Addr, true)
	}
}

// runPrefetch trains the prefetcher at level (1 = L1, 2 = L2) and issues
// its candidates. Prefetch fills propagate block state without charging
// demand latency; fetches that reach DRAM occupy real bank time.
func (h *Hierarchy) runPrefetch(core, level int, pf prefetch.Prefetcher, pc, addr uint64, miss bool, now uint64) {
	h.pfBuf = pf.OnAccess(pc, addr, miss, h.pfBuf[:0])
	for _, a := range h.pfBuf {
		h.issuePrefetch(core, level, a, now)
	}
}

func (h *Hierarchy) issuePrefetch(core, level int, addr uint64, now uint64) {
	h.Stats.PrefetchIssued++
	var top *Cache
	if level == 1 {
		top = h.l1d[core]
	} else {
		top = h.l2[core]
	}
	if top.Probe(addr) {
		return
	}
	// Locate the data below the issuing level.
	inL2 := level == 1 && h.l2[core].Probe(addr)
	inLLC := !inL2 && h.llc.Probe(addr)
	if !inL2 && !inLLC {
		h.Stats.PrefetchFromDRAM++
		h.mem.Access(now, addr, false)
		if h.incl != Exclusive {
			v := h.llc.Fill(addr, core, false, true)
			h.handleLLCVictim(v, now)
		}
	}
	if level == 1 {
		v := h.l1d[core].Fill(addr, core, false, true)
		if v.Valid && v.Dirty {
			h.fillL2(core, v.Addr, true)
		}
		return
	}
	h.fillL2Prefetch(core, addr)
}

// fillL2Prefetch inserts a prefetched block into L2 without promoting it
// to L1.
func (h *Hierarchy) fillL2Prefetch(core int, addr uint64) {
	v := h.l2[core].Fill(addr, core, false, true)
	if !v.Valid {
		return
	}
	switch h.incl {
	case Exclusive:
		lv := h.llc.Fill(v.Addr, core, v.Dirty, false)
		h.handleLLCVictim(lv, 0)
	default:
		if v.Dirty {
			lv := h.llc.Fill(v.Addr, core, true, false)
			h.handleLLCVictim(lv, 0)
		}
	}
}

// ResetStats zeroes statistics at every level while preserving cache
// contents (end-of-warm-up semantics).
func (h *Hierarchy) ResetStats() {
	for core := 0; core < h.cores; core++ {
		h.l1i[core].ResetStats()
		h.l1d[core].ResetStats()
		h.l2[core].ResetStats()
	}
	h.llc.ResetStats()
	h.Stats = HierarchyStats{
		DemandDataAccesses: make([]uint64, h.cores),
		DemandDataLatency:  make([]uint64, h.cores),
	}
}
