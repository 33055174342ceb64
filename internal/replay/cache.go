package replay

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Cache is a byte-budgeted pool of recorded streams keyed by
// (spec fingerprint, seed, base). It implements trace.SourceProvider:
// the campaign orchestrator stamps one Cache onto every config, the
// first run that needs a stream records it (concurrent first-users
// block on the stream's recording mutex instead of recording twice —
// map-level singleflight), and every other run replays the shared
// immutable arenas. Safe for concurrent use by parallel workers.
//
// The budget bounds resident arena bytes. When an extension pushes the
// pool past it, whole least-recently-used streams are dropped from the
// pool; in-flight replayers of a dropped stream keep a reference and
// finish unharmed (their arenas are reclaimed when they complete), so
// eviction can never corrupt a running simulation. The stream that is
// currently growing is never evicted by its own growth.
type Cache struct {
	budget int64 // <= 0 means unlimited

	mu      sync.Mutex
	streams map[Key]*entry
	bytes   int64
	tick    uint64

	stats Stats
}

type entry struct {
	stream  *Stream
	lastUse uint64
	// bytes mirrors the stream's arena footprint on the cache side, so
	// eviction never has to lock a victim stream (whose own growth
	// callback may be blocked on the cache mutex).
	bytes int64
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	// Hits counts Source calls served by an already-recorded stream;
	// Misses counts calls that created (and recorded) a new one.
	Hits, Misses int64
	// Evictions counts whole streams dropped to respect the budget.
	Evictions int64
	// CorruptChunks counts sealed arena chunks that failed checksum
	// verification (the damaged stream is dropped from the pool);
	// Fallbacks counts replayers that switched to live regeneration
	// because of one — degraded but never wrong.
	CorruptChunks int64
	Fallbacks     int64
	// Streams and Bytes describe current residency.
	Streams int
	Bytes   int64
	// Records is the total recorded record count across resident
	// streams' published prefixes.
	Records uint64
}

// String renders the snapshot as one log line.
func (s Stats) String() string {
	line := fmt.Sprintf("replay cache: %d streams, %.1f MiB, %d hits, %d misses, %d evictions",
		s.Streams, float64(s.Bytes)/(1<<20), s.Hits, s.Misses, s.Evictions)
	if s.CorruptChunks > 0 || s.Fallbacks > 0 {
		line += fmt.Sprintf(", %d corrupt chunks, %d regeneration fallbacks",
			s.CorruptChunks, s.Fallbacks)
	}
	return line
}

// NewCache builds a cache bounded by budgetBytes (<= 0 means unlimited)
// and shows its live counters as the metrics tree's replay group (one
// cache per process is the command-line shape; a later cache replaces
// an earlier one there).
func NewCache(budgetBytes int64) *Cache {
	c := &Cache{budget: budgetBytes, streams: make(map[Key]*entry)}
	telemetry.ReplayView.Show(func() any { return c.Snapshot() })
	return c
}

// Source implements trace.SourceProvider: it returns a replayer over
// the stream recorded for (spec, seed, base), recording on first use.
func (c *Cache) Source(spec trace.Spec, seed, base uint64) (trace.Source, error) {
	if err := fault.Err(fault.SiteReplaySource); err != nil {
		return nil, err
	}
	key := Key{Spec: spec.Fingerprint(), Seed: seed, Base: base}
	c.mu.Lock()
	e := c.streams[key]
	if e == nil {
		// Build the recording generator while NOT holding any stream
		// mutex; recording itself happens lazily as replayers read.
		gen, err := trace.NewGenerator(spec, seed, base)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		e = &entry{stream: newStream(key, spec, gen, c)}
		c.streams[key] = e
		c.stats.Misses++
	} else {
		c.stats.Hits++
	}
	c.tick++
	e.lastUse = c.tick
	c.mu.Unlock()
	return e.stream.NewReplayer(), nil
}

// grew is the stream growth callback: account the new arena and evict
// least-recently-used other streams while over budget. Called with the
// growing stream's mutex held, so it must not touch stream internals.
func (c *Cache) grew(s *Stream, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.streams[s.key]
	if !ok || e.stream != s {
		return // already evicted: its growth is no longer pool-resident
	}
	c.bytes += delta
	e.bytes += delta
	// The evict fault simulates memory pressure: one forced LRU eviction
	// on this growth even while under (or without) a budget.
	force := fault.Fires(fault.SiteReplayEvict)
	if c.budget <= 0 && !force {
		return
	}
	for force || (c.budget > 0 && c.bytes > c.budget) {
		var victim Key
		var victimEntry *entry
		for k, cand := range c.streams {
			if cand.stream == s {
				continue // never evict the stream that is growing
			}
			if victimEntry == nil || cand.lastUse < victimEntry.lastUse {
				victim, victimEntry = k, cand
			}
		}
		if victimEntry == nil {
			return // only the growing stream remains; let it exceed
		}
		c.bytes -= victimEntry.bytes
		delete(c.streams, victim)
		c.stats.Evictions++
		force = false
	}
}

// corrupted drops a stream whose arena failed checksum verification from
// the pool, so future Source calls for its key re-record from scratch
// instead of handing out more replayers over damaged chunks. In-flight
// replayers of the dropped stream fall back to live regeneration on
// their own. Called from the replay read path without the stream mutex.
func (c *Cache) corrupted(s *Stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.CorruptChunks++
	if e, ok := c.streams[s.key]; ok && e.stream == s {
		c.bytes -= e.bytes
		delete(c.streams, s.key)
	}
}

// fellBack records one replayer switching to live regeneration.
func (c *Cache) fellBack() {
	c.mu.Lock()
	c.stats.Fallbacks++
	c.mu.Unlock()
}

// Snapshot returns the cache's current counters.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Streams = len(c.streams)
	st.Bytes = c.bytes
	for _, e := range c.streams {
		st.Records += e.stream.Len()
	}
	return st
}
