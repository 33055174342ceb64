package cache

// Injector is the hook the PInTE engine implements. The LLC calls it
// after every demand access (hit or miss), handing over the accessed set
// and the accessing core, mirroring the paper's integration point: PInTE
// "integrates into the last level cache [and] uses existing function
// calls (block update, promotion, eviction)".
type Injector interface {
	OnLLCAccess(c *Cache, set, core int)
}

// The methods below are the system-side ("Sys" in Fig 2b) operations the
// injector uses. They bypass demand-access statistics: the system is not
// a workload.

// BlockValid reports whether (set, way) holds valid data.
func (c *Cache) BlockValid(set, way int) bool {
	return c.blocks[set*c.ways+way].flags&blockValid != 0
}

// BlockDirty reports whether (set, way) is dirty.
func (c *Cache) BlockDirty(set, way int) bool {
	return c.blocks[set*c.ways+way].flags&blockDirty != 0
}

// BlockOwner returns the core that inserted (set, way).
func (c *Cache) BlockOwner(set, way int) int {
	return int(c.blocks[set*c.ways+way].Owner)
}

// AtStackEnd reports whether (set, way) sits at the eviction end of the
// replacement stack (PInTE BLOCK-SELECT).
func (c *Cache) AtStackEnd(set, way int) bool {
	return c.policy.AtStackEnd(set, way)
}

// StackEnd returns the lowest way of set at the eviction end of the
// replacement stack, or -1 when there is none: BLOCK-SELECT's way-by-way
// AtStackEnd scan in one call.
func (c *Cache) StackEnd(set int) int {
	if c.lru != nil {
		return c.lru.StackEnd(set)
	}
	return c.policy.StackEnd(set)
}

// PromoteBlock moves (set, way) to the most-recently-used end of the
// stack as if the system had inserted a block there (PInTE PROMOTE).
func (c *Cache) PromoteBlock(set, way int) {
	c.bustMemo(set)
	c.policy.Promote(set, way)
}

// SysInvalidate invalidates (set, way) on behalf of the PInTE engine
// (PInTE INVALIDATE): the displaced data counts as an induced theft
// against its owner, dirty contents are handed to the writeback sink, and
// the slot is marked so the next fill records a mock theft.
func (c *Cache) SysInvalidate(set, way int) {
	b := &c.blocks[set*c.ways+way]
	if b.flags&blockValid == 0 {
		return
	}
	owner := int(b.Owner)
	c.Stats.InducedThefts[owner]++
	c.Stats.TheftsExperienced[owner]++
	if b.flags&blockDirty != 0 {
		c.Stats.Writebacks++
		if c.wbSink != nil {
			c.wbSink(c.blockAddr(set, c.tags[set*c.ways+way]))
		}
	}
	c.Stats.Occupancy[owner]--
	b.flags = b.flags&^(blockValid|blockDirty) | blockSysInvalid
	c.tags[set*c.ways+way] = noTag
	c.freeCnt[set]++
	c.bustMemo(set)
	c.policy.OnInvalidate(set, way)
}

// SetWritebackSink registers the function that receives dirty blocks the
// PInTE engine displaces (typically a DRAM write). Pass nil to drop them.
func (c *Cache) SetWritebackSink(sink func(addr uint64)) { c.wbSink = sink }

// SetAccessObserver registers a function invoked on every demand access
// (after hit/miss resolution, before the injector). Utility monitors
// (UMON shadow tags) use it to sample the access stream without
// disturbing cache state. Pass nil to detach.
func (c *Cache) SetAccessObserver(obs func(addr uint64, core int, hit bool)) {
	c.observer = obs
	c.gen++
}
