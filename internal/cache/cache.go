// Package cache models the set-associative write-back caches and the
// three-level hierarchy (private L1I/L1D/L2, shared LLC) the PInTE paper
// simulates, including the ownership ("theft") accounting from CASHT that
// PInTE builds on, the inclusive / exclusive / non-inclusive LLC modes of
// the case study, and the injection hook the PInTE engine attaches to.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/recycle"
	"repro/internal/replacement"
)

// BlockBytes is the cache block (line) size used throughout the model.
const BlockBytes = 64

// Block is one cache line's metadata: two bytes. The block's tag lives
// in the cache's parallel tags array (the way-scan path), not here.
type Block struct {
	flags uint8 // blockValid | blockDirty | blockPrefetched | blockSysInvalid
	// Owner is the id of the core that inserted the block.
	Owner int8
}

// Block flag bits.
const (
	blockValid uint8 = 1 << iota
	blockDirty
	// blockPrefetched is set on prefetch fills and cleared on the first
	// demand hit (at which point the prefetch counts as useful).
	blockPrefetched
	// blockSysInvalid marks a slot whose contents were invalidated by
	// the PInTE engine; the next fill into it is a "mock theft" (Fig 2b).
	blockSysInvalid
)

// Victim describes a block displaced by a fill or invalidation.
type Victim struct {
	Addr  uint64 // block-aligned byte address
	Owner int
	Valid bool
	Dirty bool
	// Theft reports that the eviction displaced valid data inserted by
	// a different core (an inter-core eviction).
	Theft bool
}

// Config describes one cache's geometry.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency uint64
	// Policy orders blocks for replacement; nil selects LRU.
	Policy replacement.Policy
	// Cores sizes the per-core statistics arrays; 0 means 1.
	Cores int
}

// Stats aggregates one cache's counters. Per-core slices are indexed by
// core id.
type Stats struct {
	Accesses   []uint64 // demand accesses (loads, stores, code fetches)
	Hits       []uint64
	Misses     []uint64
	Writebacks uint64 // dirty evictions passed to the next level

	// Theft accounting (shared caches).
	TheftsCaused      []uint64 // this core evicted another core's data
	TheftsExperienced []uint64 // this core's data was evicted by another
	// InducedThefts counts PInTE invalidations of this core's valid
	// data; they are also included in TheftsExperienced.
	InducedThefts []uint64
	// MockThefts counts demand fills that landed on a slot the PInTE
	// engine had invalidated (the system "pretending" its data was
	// evicted, Fig 2b).
	MockThefts []uint64

	// ReuseHist counts demand hits by replacement-stack position
	// (index 0 = MRU end). Shared across cores; per-core reuse is
	// tracked by ReuseHistCore.
	ReuseHist     []uint64
	ReuseHistCore [][]uint64

	// Occupancy is the current number of valid blocks owned per core.
	Occupancy []uint64

	// Prefetch effectiveness.
	PrefetchFills  uint64
	PrefetchUseful uint64
}

func newStats(cores, ways int) Stats {
	// All counters share one backing array: the hot-path increments
	// (access, hit, reuse position) then touch a handful of adjacent
	// cache lines instead of ten scattered allocations.
	backing := make([]uint64, 8*cores+ways+cores*ways)
	mk := func() []uint64 {
		s := backing[:cores:cores]
		backing = backing[cores:]
		return s
	}
	s := Stats{
		Accesses:          mk(),
		Hits:              mk(),
		Misses:            mk(),
		TheftsCaused:      mk(),
		TheftsExperienced: mk(),
		InducedThefts:     mk(),
		MockThefts:        mk(),
		Occupancy:         mk(),
	}
	s.ReuseHist = backing[:ways:ways]
	backing = backing[ways:]
	s.ReuseHistCore = make([][]uint64, cores)
	for i := range s.ReuseHistCore {
		s.ReuseHistCore[i] = backing[:ways:ways]
		backing = backing[ways:]
	}
	return s
}

// MissRate returns total misses / total accesses across cores.
func (s *Stats) MissRate() float64 {
	var a, m uint64
	for i := range s.Accesses {
		a += s.Accesses[i]
		m += s.Misses[i]
	}
	if a == 0 {
		return 0
	}
	return float64(m) / float64(a)
}

// MissRateCore returns core's miss ratio: 0 when core made no accesses or
// is outside the configured core range.
func (s *Stats) MissRateCore(core int) float64 {
	if core < 0 || core >= len(s.Accesses) || s.Accesses[core] == 0 {
		return 0
	}
	return float64(s.Misses[core]) / float64(s.Accesses[core])
}

// ContentionRate returns core's thefts experienced per demand access —
// the paper's contention/interference rate for the LLC. It is 0 when core
// made no accesses or is outside the configured core range.
func (s *Stats) ContentionRate(core int) float64 {
	if core < 0 || core >= len(s.Accesses) || s.Accesses[core] == 0 {
		return 0
	}
	return float64(s.TheftsExperienced[core]) / float64(s.Accesses[core])
}

// noTag is the tag-array value for an invalid way and the memo value for
// "no memoised hit". Real tags cannot collide with it: a tag is a block
// address shifted right by 6 + setBits bits, so it occupies at most 58
// bits.
const noTag = ^uint64(0)

// Cache is a single set-associative write-back cache.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	setBits  uint
	blocks   []Block
	policy   replacement.Policy
	Stats    Stats
	injector Injector          // LLC only; may be nil
	wbSink   func(addr uint64) // receives PInTE-displaced dirty blocks
	// tags mirrors blocks: tags[i] is blocks[i].Tag when the block is
	// valid and noTag otherwise, so the way-lookup scan touches 8 bytes
	// per way instead of a whole Block and needs no Valid check.
	tags []uint64
	// memoTag/memoWay/memoPos memoise, per set, the block of the set's
	// most recent demand hit so that repeat hits — the dominant access
	// pattern on the L1s — skip the way scan and the replacement-policy
	// calls. memoTag[set] is noTag when nothing is memoised; memoPos is
	// the cached HitPosition (-1 = not yet computed). Any mutation of a
	// set (fill, invalidation, extraction, system-side promotion) busts
	// its memo.
	memoTag []uint64
	memoWay []int32
	memoPos []int32
	// posTouch is non-nil when the policy supports the fused
	// HitPosition+OnHit call (one dynamic dispatch on the hit path
	// instead of two).
	posTouch interface{ HitPositionTouch(set, way int) int }
	// gen counts mutations of the block population (fills, evictions,
	// invalidations, extractions) and observer/injector attachment, so
	// callers can cheaply detect "nothing changed since I last looked"
	// (the core front end's fetch-block cache relies on it).
	gen uint64
	// Miss memo: a demand miss records the set, tag, first free way and
	// generation, so the demand fill that follows immediately can skip
	// re-proving absence and re-scanning for a free way. Any cache
	// mutation in between (e.g. an injector invalidation or an
	// inclusive back-invalidation) bumps gen and voids the memo.
	missSet  int
	missTag  uint64
	missFree int32
	missGen  uint64
	// lru holds the policy devirtualised when it is the default LRU, so
	// the hottest policy calls compile to direct (inlinable) calls.
	lru *replacement.LRU
	// freeCnt[set] is the number of invalid ways in set. Once a set has
	// filled up it stays full (evictions are immediately followed by
	// inserts), so the lookup scan can drop its free-way tracking — one
	// compare per way instead of two — for the whole steady state.
	freeCnt []int32
	// noReuse disables reuse-position (hit-position) tracking; set via
	// SkipReuseHist on caches whose histograms nothing consumes.
	noReuse bool
	// partition holds per-core fill way-masks (0 = unrestricted); see
	// SetWayPartition.
	partition []uint64
	// observer, when set, sees every demand access (see
	// SetAccessObserver).
	observer func(addr uint64, core int, hit bool)
}

// New builds a cache from cfg. It returns an error on impossible
// geometry (non-power-of-two set count, size not divisible by ways).
func New(cfg Config) (*Cache, error) {
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache %s: ways and size must be positive", cfg.Name)
	}
	blocksTotal := cfg.SizeBytes / BlockBytes
	if blocksTotal%cfg.Ways != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible into %d ways of %dB blocks",
			cfg.Name, cfg.SizeBytes, cfg.Ways, BlockBytes)
	}
	sets := blocksTotal / cfg.Ways
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d is not a power of two", cfg.Name, sets)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = replacement.NewLRU()
	}
	pol.Reset(sets, cfg.Ways)
	c := &Cache{
		cfg:     cfg,
		sets:    sets,
		ways:    cfg.Ways,
		setBits: uint(bits.TrailingZeros(uint(sets))),
		blocks:  recycle.Get[Block](sets * cfg.Ways),
		tags:    recycle.Get[uint64](sets * cfg.Ways),
		memoTag: recycle.Get[uint64](sets),
		memoWay: recycle.Get[int32](sets),
		memoPos: recycle.Get[int32](sets),
		freeCnt: recycle.Get[int32](sets),
		policy:  pol,
		Stats:   newStats(cfg.Cores, cfg.Ways),
	}
	for i := range c.tags {
		c.tags[i] = noTag
	}
	for i := range c.freeCnt {
		c.freeCnt[i] = int32(cfg.Ways)
	}
	for i := range c.memoTag {
		c.memoTag[i] = noTag
	}
	c.posTouch, _ = pol.(interface{ HitPositionTouch(set, way int) int })
	c.lru, _ = pol.(*replacement.LRU)
	c.missTag = noTag
	return c, nil
}

// Release hands the cache's arrays and its policy's per-set state back
// for the next cache built with the same geometry. The cache is unusable
// afterwards: its arrays are nil, so any later access panics. Releasing
// twice is harmless. Only the cache's owner may release it, once nothing
// reads it any more; Stats stay readable, they are never recycled.
func (c *Cache) Release() {
	c.policy.Release()
	recycle.Put(c.blocks)
	recycle.Put(c.tags)
	recycle.Put(c.memoTag)
	recycle.Put(c.memoWay)
	recycle.Put(c.memoPos)
	recycle.Put(c.freeCnt)
	c.blocks, c.tags, c.freeCnt = nil, nil, nil
	c.memoTag, c.memoWay, c.memoPos = nil, nil, nil
}

// MustNew is New that panics on configuration errors.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// HitLatency returns the configured hit latency in cycles.
func (c *Cache) HitLatency() uint64 { return c.cfg.HitLatency }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the replacement policy instance.
func (c *Cache) Policy() replacement.Policy { return c.policy }

// SetInjector attaches a PInTE injector; pass nil to detach.
func (c *Cache) SetInjector(inj Injector) {
	c.injector = inj
	c.gen++
}

// Gen returns the cache's mutation generation (see the field comment).
func (c *Cache) Gen() uint64 { return c.gen }

// SkipReuseHist disables reuse-position tracking for this cache: hits
// still update replacement state but no longer pay the per-hit stack-
// position walk, and ReuseHist/ReuseHistCore stay zero. The hierarchy
// applies it to the private levels, whose histograms nothing consumes —
// only the LLC's reuse histogram is reported (Fig 5/6).
func (c *Cache) SkipReuseHist() { c.noReuse = true }

// passive reports that no observer or injector watches demand accesses.
func (c *Cache) passive() bool { return c.observer == nil && c.injector == nil }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	blk := addr / BlockBytes
	return int(blk & uint64(c.sets-1)), blk >> c.setBits
}

func (c *Cache) findWay(set int, tag uint64) int {
	base := set * c.ways
	for w, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return w
		}
	}
	return -1
}

// bustMemo forgets set's repeat-hit memo and advances the mutation
// generation; every caller is a block-population or stack mutation.
func (c *Cache) bustMemo(set int) {
	c.memoTag[set] = noTag
	c.gen++
}

// Lookup performs a demand access by core. On a hit the block's
// replacement state is updated, reuse position recorded, dirty bit set
// for writes, and the PInTE injector (if attached) runs afterwards.
// Misses also run the injector: the paper's flow triggers on every LLC
// access.
func (c *Cache) Lookup(addr uint64, core int, isWrite bool) bool {
	set, tag := c.index(addr)
	c.Stats.Accesses[core]++
	if c.memoTag[set] == tag {
		c.repeatHit(addr, set, core, isWrite)
		return true
	}
	base := set * c.ways
	w, free := -1, -1
	if c.freeCnt[set] == 0 {
		// Full set (the steady state): tight match-only scan.
		for i, t := range c.tags[base : base+c.ways] {
			if t == tag {
				w = i
				break
			}
		}
	} else {
		// Fused scan: way match for the hit path, first free way for
		// the miss memo consumed by the demand fill after a miss.
		for i, t := range c.tags[base : base+c.ways] {
			if t == tag {
				w = i
				break
			}
			if free < 0 && t == noTag {
				free = i
			}
		}
	}
	hit := w >= 0
	if hit {
		b := &c.blocks[base+w]
		if c.noReuse {
			if c.lru != nil {
				c.lru.OnHit(set, w)
			} else {
				c.policy.OnHit(set, w)
			}
		} else {
			var pos int
			if c.lru != nil {
				pos = c.lru.HitPositionTouch(set, w)
			} else if c.posTouch != nil {
				pos = c.posTouch.HitPositionTouch(set, w)
			} else {
				pos = c.policy.HitPosition(set, w)
				c.policy.OnHit(set, w)
			}
			c.Stats.ReuseHist[pos]++
			c.Stats.ReuseHistCore[core][pos]++
		}
		c.Stats.Hits[core]++
		if b.flags&blockPrefetched != 0 {
			b.flags &^= blockPrefetched
			c.Stats.PrefetchUseful++
		}
		if isWrite {
			b.flags |= blockDirty
		}
		c.memoTag[set] = tag
		c.memoWay[set] = int32(w)
		c.memoPos[set] = -1
	} else {
		c.Stats.Misses[core]++
		c.missSet, c.missTag, c.missFree, c.missGen = set, tag, int32(free), c.gen
	}
	if c.observer != nil {
		c.observer(addr, core, hit)
	}
	if c.injector != nil {
		c.injector.OnLLCAccess(c, set, core)
	}
	return hit
}

// TryRepeatHit attempts the repeat-hit fast path directly: when addr
// matches the set's memoised hit it performs the full demand-hit
// accounting (including observer and injector) and reports true; on a
// memo mismatch it does nothing and the caller falls back to Lookup.
func (c *Cache) TryRepeatHit(addr uint64, core int, isWrite bool) bool {
	set, tag := c.index(addr)
	if c.memoTag[set] != tag {
		return false
	}
	c.Stats.Accesses[core]++
	c.repeatHit(addr, set, core, isWrite)
	return true
}

// repeatHit services a demand hit on the same block as the set's previous
// demand hit with no intervening mutation of the set (every fill,
// invalidation, extraction and system-side promotion busts the memo).
// The replacement-policy calls are skipped, which is observation-
// equivalent for every shipped policy: the memo block already received
// OnHit when the memo was established, a second OnHit on the set's most
// recently touched way is idempotent for pLRU, nMRU and RRIP, and for
// ranked LRU it changes only the block's absolute rank — victim choice
// and stack positions compare ranks within the set, and the memo block
// is already the set's youngest. HitPosition on the unchanged set state is
// deterministic, so it is computed once and cached. The Prefetched bit
// needs no check: the slow-path hit that established the memo cleared it.
func (c *Cache) repeatHit(addr uint64, set, core int, isWrite bool) {
	if !c.noReuse {
		pos := int(c.memoPos[set])
		if pos < 0 {
			if c.lru != nil {
				pos = c.lru.HitPosition(set, int(c.memoWay[set]))
			} else {
				pos = c.policy.HitPosition(set, int(c.memoWay[set]))
			}
			c.memoPos[set] = int32(pos)
		}
		c.Stats.ReuseHist[pos]++
		c.Stats.ReuseHistCore[core][pos]++
	}
	c.Stats.Hits[core]++
	if isWrite {
		c.blocks[set*c.ways+int(c.memoWay[set])].flags |= blockDirty
	}
	if c.observer != nil {
		c.observer(addr, core, true)
	}
	if c.injector != nil {
		c.injector.OnLLCAccess(c, set, core)
	}
}

// Probe reports whether addr is present without disturbing any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	return c.findWay(set, tag) >= 0
}

// Fill inserts addr for core, evicting if necessary, and returns the
// victim (Valid=false when an empty or system-invalidated way absorbed
// the fill). dirty seeds the block's dirty bit (writeback allocations);
// prefetched marks prefetch fills.
func (c *Cache) Fill(addr uint64, core int, dirty, prefetched bool) Victim {
	set, tag := c.index(addr)
	base := set * c.ways
	if c.partition == nil {
		free := -1
		if tag == c.missTag && set == c.missSet && c.gen == c.missGen {
			// The lookup that missed already proved absence and found
			// the first free way; nothing has mutated since.
			free = int(c.missFree)
		} else {
			// One fused scan doubles as the presence check and the
			// first-free-way search.
			for w, t := range c.tags[base : base+c.ways] {
				if t == tag {
					// Already present (races between prefetch and
					// demand paths, or a writeback allocating over an
					// existing copy): update flags.
					if dirty {
						c.blocks[base+w].flags |= blockDirty
					}
					return Victim{}
				}
				if free < 0 && t == noTag {
					free = w
				}
			}
		}
		var victim Victim
		way := free
		if way < 0 {
			if c.lru != nil {
				way = c.lru.Victim(set)
			} else {
				way = c.policy.Victim(set)
			}
			victim = c.evict(set, way, core)
		}
		c.insert(set, way, tag, core, dirty, prefetched)
		return victim
	}
	// Partitioned: fills are restricted to the core's way mask.
	if w := c.findWay(set, tag); w >= 0 {
		if dirty {
			c.blocks[base+w].flags |= blockDirty
		}
		return Victim{}
	}
	mask := c.fillMask(core)
	full := uint64(1)<<uint(c.ways) - 1
	way := -1
	for w := 0; w < c.ways; w++ {
		if mask&(1<<uint(w)) != 0 && c.tags[base+w] == noTag {
			way = w
			break
		}
	}
	var victim Victim
	if way < 0 {
		if mask == full {
			way = c.policy.Victim(set)
		} else {
			way = c.victimWithin(set, mask)
		}
		victim = c.evict(set, way, core)
	}
	c.insert(set, way, tag, core, dirty, prefetched)
	return victim
}

// insert writes a new block into (set, way), which must be invalid.
func (c *Cache) insert(set, way int, tag uint64, core int, dirty, prefetched bool) {
	b := &c.blocks[set*c.ways+way]
	if b.flags&blockSysInvalid != 0 {
		// The PInTE engine hollowed this slot out; inserting on it is
		// the "mock theft" of Fig 2b: the workload behaves as if an
		// adversary's block had been here.
		c.Stats.MockThefts[core]++
	}
	flags := blockValid
	if dirty {
		flags |= blockDirty
	}
	if prefetched {
		flags |= blockPrefetched
	}
	*b = Block{flags: flags, Owner: int8(core)}
	c.tags[set*c.ways+way] = tag
	c.freeCnt[set]--
	c.bustMemo(set)
	c.Stats.Occupancy[core]++
	if prefetched {
		c.Stats.PrefetchFills++
	}
	if c.lru != nil {
		c.lru.OnFill(set, way)
	} else {
		c.policy.OnFill(set, way)
	}
}

// evict removes the valid block at (set, way) on behalf of requester and
// returns its description, recording theft accounting.
func (c *Cache) evict(set, way, requester int) Victim {
	b := &c.blocks[set*c.ways+way]
	v := Victim{
		Addr:  c.blockAddr(set, c.tags[set*c.ways+way]),
		Owner: int(b.Owner),
		Valid: true,
		Dirty: b.flags&blockDirty != 0,
	}
	if int(b.Owner) != requester {
		v.Theft = true
		c.Stats.TheftsCaused[requester]++
		c.Stats.TheftsExperienced[b.Owner]++
	}
	if v.Dirty {
		c.Stats.Writebacks++
	}
	c.Stats.Occupancy[b.Owner]--
	b.flags &^= blockValid | blockDirty
	c.tags[set*c.ways+way] = noTag
	c.freeCnt[set]++
	if c.lru == nil { // LRU.OnInvalidate is a documented no-op
		c.policy.OnInvalidate(set, way)
	}
	return v
}

func (c *Cache) blockAddr(set int, tag uint64) uint64 {
	return (tag<<c.setBits | uint64(set)) * BlockBytes
}

// InvalidateAddr removes addr if present (back-invalidation for inclusive
// hierarchies) and reports whether it was found and whether it was dirty.
func (c *Cache) InvalidateAddr(addr uint64) (found, dirty bool) {
	set, tag := c.index(addr)
	w := c.findWay(set, tag)
	if w < 0 {
		return false, false
	}
	b := &c.blocks[set*c.ways+w]
	dirty = b.flags&blockDirty != 0
	c.Stats.Occupancy[b.Owner]--
	b.flags &^= blockValid | blockDirty
	c.tags[set*c.ways+w] = noTag
	c.freeCnt[set]++
	c.bustMemo(set)
	c.policy.OnInvalidate(set, w)
	return true, dirty
}

// Extract removes addr for an exclusive-hierarchy upward move: the block
// leaves this cache without being treated as an eviction (no theft, no
// writeback; the dirty bit travels with the returned value).
func (c *Cache) Extract(addr uint64) (dirty, found bool) {
	set, tag := c.index(addr)
	w := c.findWay(set, tag)
	if w < 0 {
		return false, false
	}
	b := &c.blocks[set*c.ways+w]
	dirty = b.flags&blockDirty != 0
	c.Stats.Occupancy[b.Owner]--
	b.flags &^= blockValid | blockDirty
	c.tags[set*c.ways+w] = noTag
	c.freeCnt[set]++
	c.bustMemo(set)
	c.policy.OnInvalidate(set, w)
	return dirty, true
}

// OccupiedBlocks returns the total number of valid blocks.
func (c *Cache) OccupiedBlocks() uint64 {
	var n uint64
	for i := range c.Stats.Occupancy {
		n += c.Stats.Occupancy[i]
	}
	return n
}

// CapacityBlocks returns the total number of block frames.
func (c *Cache) CapacityBlocks() uint64 { return uint64(c.sets * c.ways) }

// ResetStats zeroes all statistics counters while preserving cache
// contents and replacement state, then reconstructs the occupancy counts
// from the live blocks. Simulation drivers call it at the end of warm-up.
func (c *Cache) ResetStats() {
	c.Stats = newStats(c.cfg.Cores, c.ways)
	for i := range c.blocks {
		if c.blocks[i].flags&blockValid != 0 {
			c.Stats.Occupancy[c.blocks[i].Owner]++
		}
	}
}
