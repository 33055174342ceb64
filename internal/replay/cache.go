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
// The budget bounds the arena bytes the cache holds: every resident
// stream's flag chunks (seek index included) and value pages, plus its
// free list. When an extension pushes the cache past it, free arenas go
// first, then whole least-recently-used streams are dropped from the
// pool. The stream that is currently growing is never evicted by its
// own growth. Release drops one stream the same way when the campaign
// that reads it is done with it (runner.Options.Streams): a cache shared
// by several campaigns is handed to each without Release.
//
// The cache counts the replayers of each stream it owns. A dropped
// stream's in-flight replayers keep reading it unharmed, so eviction can
// never corrupt a running simulation; once the last of them is released
// (Replayer.Release), or at the drop if none is live, the stream's
// arenas join the cache's free list, and later recordings take arenas
// from there before they allocate. A stream dropped because an arena
// failed verification is never recycled, and a stream whose replayer is
// never released stays with that replayer and falls to the garbage
// collector.
type Cache struct {
	budget int64 // <= 0 means unlimited

	mu      sync.Mutex
	streams map[Key]*entry
	bytes   int64 // resident streams' arena bytes
	tick    uint64

	// freeChunks and freePages are the arenas of dropped streams no
	// replayer reads any more, freeBytes their size.
	freeChunks []*chunk
	freePages  []*page
	freeBytes  int64

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
	// Evictions counts whole streams dropped to respect the budget;
	// Released counts streams dropped because their campaign had no
	// reader left for them (Release).
	Evictions int64
	Released  int64
	// CorruptChunks counts sealed flag chunks and value pages that
	// failed checksum verification (the damaged stream is dropped from
	// the pool); Fallbacks counts replayers that switched to live
	// regeneration because of one — degraded but never wrong.
	CorruptChunks int64
	Fallbacks     int64
	// Allocated counts the arena bytes recordings allocated; Reused
	// counts the arenas they took from the free list instead.
	Allocated int64
	Reused    int64
	// Streams and Bytes describe current residency, FreeBytes the free
	// list: the cache holds Bytes+FreeBytes arena bytes.
	Streams   int
	Bytes     int64
	FreeBytes int64
	// Records is the total recorded record count across resident
	// streams' published prefixes.
	Records uint64
}

// String renders the snapshot as one log line.
func (s Stats) String() string {
	line := fmt.Sprintf("replay cache: %d streams, %.1f MiB, %.1f MiB free, %.1f MiB allocated, %d hits, %d misses, %d evictions, %d released, %d arenas reused",
		s.Streams, float64(s.Bytes)/(1<<20), float64(s.FreeBytes)/(1<<20), float64(s.Allocated)/(1<<20),
		s.Hits, s.Misses, s.Evictions, s.Released, s.Reused)
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
	r := e.stream.newReplayer()
	c.mu.Unlock()
	return r, nil
}

// Release drops the stream recorded for (spec, seed, base) from the
// pool, if resident: the campaign orchestrator (internal/runner) calls
// it once the campaign has no reader left for the stream. Like an
// eviction, it leaves in-flight replayers of the stream reading to
// their end, and recycles its arenas after the last of them; the next
// Source call for the key records the stream again, record for record
// identical.
func (c *Cache) Release(spec trace.Spec, seed, base uint64) {
	key := Key{Spec: spec.Fingerprint(), Seed: seed, Base: base}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.streams[key]; ok {
		c.dropLocked(e)
		c.stats.Released++
	}
}

// dropLocked takes e's stream out of the pool. Its arenas are reclaimed
// now if no replayer reads it, else at its last replayer's release.
func (c *Cache) dropLocked(e *entry) {
	s := e.stream
	c.bytes -= e.bytes
	delete(c.streams, s.key)
	s.dropped = true
	if s.readers == 0 {
		c.reclaimLocked(s)
	}
}

// unread is Replayer.Release for a stream c owns: it ends one reader
// and reclaims the stream's arenas if it was the last reader of a
// dropped stream.
func (c *Cache) unread(s *Stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.readers--; s.readers == 0 && s.dropped {
		c.reclaimLocked(s)
	}
}

// scribbleReclaimed, when a test sets it, fills every reclaimed arena
// with garbage before it joins the free list, so a replayer that still
// reads a reclaimed arena returns wrong records instead of stale right
// ones.
var scribbleReclaimed bool

// reclaimLocked puts the arenas of s, which is dropped and has no
// reader, on the free list, unless one of them failed verification,
// then trims the list to the budget.
func (c *Cache) reclaimLocked(s *Stream) {
	if s.corrupt {
		return
	}
	chunks, pages := *s.chunks.Load(), *s.pages.Load()
	if scribbleReclaimed {
		for _, ch := range chunks {
			scribble(ch.data(), &ch.seal)
		}
		for _, p := range pages {
			scribble(p.data(), &p.seal)
		}
	}
	c.freeChunks = append(c.freeChunks, chunks...)
	c.freePages = append(c.freePages, pages...)
	c.freeBytes += int64(len(chunks))*chunkBytes + int64(len(pages))*pageBytes
	c.trimLocked()
}

// scribble overwrites an arena's data and seal with a pattern no
// recording writes, leaving it open so a reader decodes it unverified.
func scribble(data []byte, sl *seal) {
	for i := range data {
		data[i] = 0xa5
	}
	sl.sum = 0xa5a5a5a5
	sl.state.Store(sealOpen)
}

// overLocked reports whether the cache holds more arena bytes than its
// budget allows.
func (c *Cache) overLocked() bool {
	return c.budget > 0 && c.bytes+c.freeBytes > c.budget
}

// trimLocked drops free arenas while the cache is over its budget.
func (c *Cache) trimLocked() {
	for c.overLocked() {
		switch {
		case pop(&c.freePages) != nil:
			c.freeBytes -= pageBytes
		case pop(&c.freeChunks) != nil:
			c.freeBytes -= chunkBytes
		default:
			return
		}
	}
}

// pop removes and returns the last arena of *free, nil when it is
// empty.
func pop[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return nil
	}
	a := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return a
}

// takeArena accounts an arena of size bytes that the growing stream s
// adds, and pops it from free, c's free chunks or pages, or returns nil
// when s must allocate it. Called with s's mutex held; the caller zeroes
// a popped arena outside c's mutex.
func takeArena[T any](c *Cache, s *Stream, free *[]*T, size int64) *T {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := pop(free)
	if a != nil {
		c.freeBytes -= size
		c.stats.Reused++
	} else {
		c.stats.Allocated += size
	}
	c.grewLocked(s, size)
	return a
}

// grewLocked accounts a new chunk or page of s and brings the cache back
// under its budget: free arenas go first, then least-recently-used other
// streams. Called with the growing stream's mutex held, so it must not
// touch that stream's internals.
func (c *Cache) grewLocked(s *Stream, delta int64) {
	e, ok := c.streams[s.key]
	if !ok || e.stream != s {
		return // already evicted: its growth is no longer pool-resident
	}
	c.bytes += delta
	e.bytes += delta
	// The evict fault simulates memory pressure: one forced LRU eviction
	// on this growth even while under (or without) a budget.
	force := fault.Fires(fault.SiteReplayEvict)
	c.trimLocked()
	for force || c.overLocked() {
		var victim *entry
		for _, cand := range c.streams {
			if cand.stream == s {
				continue // never evict the stream that is growing
			}
			if victim == nil || cand.lastUse < victim.lastUse {
				victim = cand
			}
		}
		if victim == nil {
			return // only the growing stream remains; let it exceed
		}
		c.dropLocked(victim)
		c.stats.Evictions++
		force = false
	}
}

// corrupted drops a stream whose arena failed checksum verification from
// the pool, so future Source calls for its key re-record from scratch
// instead of handing out more replayers over damaged arenas, and marks
// it so its arenas are never recycled. In-flight replayers of the
// dropped stream fall back to live regeneration on their own. Called
// from the replay read path without the stream mutex.
func (c *Cache) corrupted(s *Stream) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.CorruptChunks++
	s.corrupt = true
	if e, ok := c.streams[s.key]; ok && e.stream == s {
		c.dropLocked(e)
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
	st.FreeBytes = c.freeBytes
	for _, e := range c.streams {
		st.Records += e.stream.Len()
	}
	return st
}
