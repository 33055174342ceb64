package replay

import (
	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/trace"
)

func spec(t testing.TB, name string) trace.Spec {
	t.Helper()
	s, err := trace.SpecFor(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReplayerMatchesGenerator locks the core equivalence claim: a
// replayed stream is record-for-record identical to the generator it
// recorded, across chunk boundaries and for every access shape.
func TestReplayerMatchesGenerator(t *testing.T) {
	const n = chunkRecs + 3*1024 // cross the first arena boundary
	s := spec(t, "450.soplex")
	gen, err := trace.NewGenerator(s, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	src, err := c.Source(s, 42, 0)
	if err != nil {
		t.Fatal(err)
	}

	want := make([]trace.Record, 257) // odd size: batches straddle chunks
	got := make([]trace.Record, 257)
	// First pass records at the frontier; the second replays the packed
	// arenas, so the 32-bit pack/unpack round-trip is what's compared.
	for pass := 0; pass < 2; pass++ {
		gen.Rewind()
		src.(trace.Rewinder).Rewind()
		for read := 0; read < n; read += len(want) {
			if _, err := gen.NextBatch(want); err != nil {
				t.Fatal(err)
			}
			if _, err := src.NextBatch(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("pass %d record %d diverged: generated %+v, replayed %+v",
						pass, read+i, want[i], got[i])
				}
			}
		}
	}
}

// TestNextMatchesNextBatch checks the replayer's two read paths yield
// one stream.
func TestNextMatchesNextBatch(t *testing.T) {
	s := spec(t, "433.milc")
	c := NewCache(0)
	a, err := c.Source(s, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Source(s, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]trace.Record, 64)
	var rec trace.Record
	for read := 0; read < 4096; read += len(batch) {
		if _, err := a.NextBatch(batch); err != nil {
			t.Fatal(err)
		}
		for i := range batch {
			if err := b.Next(&rec); err != nil {
				t.Fatal(err)
			}
			if rec != batch[i] {
				t.Fatalf("record %d: Next %+v != NextBatch %+v", read+i, rec, batch[i])
			}
		}
	}
}

// TestReplayerRewind verifies a rewound replayer restarts the stream
// from its first record, as a fresh generator would.
func TestReplayerRewind(t *testing.T) {
	s := spec(t, "470.lbm")
	c := NewCache(0)
	src, err := c.Source(s, 3, 1<<42)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]trace.Record, 512)
	if _, err := src.NextBatch(first); err != nil {
		t.Fatal(err)
	}
	skip := make([]trace.Record, 1024)
	if _, err := src.NextBatch(skip); err != nil {
		t.Fatal(err)
	}
	src.Rewind()
	again := make([]trace.Record, 512)
	if _, err := src.NextBatch(again); err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("record %d changed across rewind", i)
		}
	}
}

// TestCacheCounters pins the hit/miss accounting: same key shares a
// stream, any key component change records anew.
func TestCacheCounters(t *testing.T) {
	s := spec(t, "450.soplex")
	c := NewCache(0)
	for _, k := range []struct {
		seed, base uint64
	}{{1, 0}, {1, 0}, {2, 0}, {1, 4096}} {
		if _, err := c.Source(s, k.seed, k.base); err != nil {
			t.Fatal(err)
		}
	}
	other := spec(t, "433.milc")
	if _, err := c.Source(other, 1, 0); err != nil {
		t.Fatal(err)
	}
	st := c.Snapshot()
	if st.Misses != 4 || st.Hits != 1 {
		t.Fatalf("got %d misses / %d hits, want 4 / 1: %s", st.Misses, st.Hits, st)
	}
	if st.Streams != 4 {
		t.Fatalf("got %d resident streams, want 4", st.Streams)
	}
}

// TestCacheEviction forces the budget: with room for roughly one
// stream, touching a second must evict the least-recently-used one —
// and a live replayer of the evicted stream must keep working.
func TestCacheEviction(t *testing.T) {
	// A stream's first batch costs one flag chunk and one value page.
	const first = chunkBytes + pageBytes
	c := NewCache(first + first/2)
	a, err := c.Source(spec(t, "450.soplex"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Record, 256)
	if _, err := a.NextBatch(buf); err != nil { // records stream A's first arena
		t.Fatal(err)
	}
	b, err := c.Source(spec(t, "433.milc"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.NextBatch(buf); err != nil { // pushes past budget: A evicted
		t.Fatal(err)
	}
	st := c.Snapshot()
	if st.Evictions == 0 {
		t.Fatalf("no eviction under a one-stream budget: %s", st)
	}
	if st.Bytes > first+first/2 {
		t.Fatalf("resident bytes %d exceed budget: %s", st.Bytes, st)
	}
	// The evicted stream's replayer still reads (and extends privately).
	big := make([]trace.Record, chunkRecs)
	if _, err := a.NextBatch(big); err != nil {
		t.Fatalf("evicted stream's live replayer failed: %v", err)
	}
}

// TestConcurrentFirstUsers exercises the singleflight property: many
// workers cold-starting the same stream record it once and read
// identical sequences. Run under -race by make ci.
func TestConcurrentFirstUsers(t *testing.T) {
	const workers = 8
	const n = chunkRecs + 1024 // every worker crosses an arena boundary
	s := spec(t, "450.soplex")
	c := NewCache(0)
	sums := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src, err := c.Source(s, 9, 0)
			if err != nil {
				t.Error(err)
				return
			}
			h := fnv.New64a()
			buf := make([]trace.Record, 128)
			var scratch [8]byte
			for read := 0; read < n; read += len(buf) {
				if _, err := src.NextBatch(buf); err != nil {
					t.Error(err)
					return
				}
				for i := range buf {
					r := &buf[i]
					for k, v := range []uint64{r.PC, r.Load0, r.Load1, r.Store, r.Target} {
						scratch[0] = byte(k)
						scratch[1] = byte(v)
						scratch[2] = byte(v >> 8)
						scratch[3] = byte(v >> 24)
						scratch[4] = byte(v >> 32)
						scratch[5] = byte(v >> 48)
						h.Write(scratch[:6])
					}
				}
			}
			sums[w] = h.Sum64()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if sums[w] != sums[0] {
			t.Fatalf("worker %d read a different stream: %x vs %x", w, sums[w], sums[0])
		}
	}
	st := c.Snapshot()
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Fatalf("cold stream recorded more than once: %s", st)
	}
}

// TestReplayHotPathAllocFree pins the steady-state replay path at zero
// allocations: once a stream prefix is recorded, batched reads must
// never touch the heap.
func TestReplayHotPathAllocFree(t *testing.T) {
	s := spec(t, "450.soplex")
	c := NewCache(0)
	src, err := c.Source(s, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.Record, 256)
	for read := 0; read < 8192; read += len(buf) { // warm: record the prefix
		if _, err := src.NextBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	rw := src.(trace.Rewinder)
	allocs := testing.AllocsPerRun(200, func() {
		rw.Rewind()
		for read := 0; read < 8192; read += len(buf) {
			if _, err := src.NextBatch(buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("replay hot path allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkReplayNextBatch measures the steady-state replay read rate —
// the number to compare against BenchmarkTraceGen/NextBatch (~26
// ns/instr): the difference is what the cache saves per replayed
// instruction — and the arena density the stream was recorded at.
func BenchmarkReplayNextBatch(b *testing.B) {
	s := spec(b, "450.soplex")
	c := NewCache(0)
	src, err := c.Source(s, 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]trace.Record, 256)
	for read := 0; read < 2*chunkRecs; read += len(buf) { // record two arenas
		if _, err := src.NextBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
	rw := src.(trace.Rewinder)
	rw.Rewind()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(2*chunkRecs/len(buf)) == 0 {
			rw.Rewind() // stay inside the recorded arenas
		}
		if _, err := src.NextBatch(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(buf)), "instrs/op")
	st := c.Snapshot()
	b.ReportMetric(float64(st.Bytes)/float64(st.Records), "B/record")
}

// TestReplayerSkip locks the seek contract phase-sampled runs depend
// on: Skip(n) then read must equal read-and-discard n then read, both
// behind the frontier (O(1) cursor advance) and at it (record-forward,
// keeping the arenas dense for later readers).
func TestReplayerSkip(t *testing.T) {
	const skip, read = chunkRecs + 1000, 2048 // skip crosses an arena boundary
	s := spec(t, "450.soplex")
	c := NewCache(0)

	// Reference: a generator discarded to the same position.
	gen, err := trace.NewGenerator(s, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Record, read)
	if err := discard(gen, skip); err != nil {
		t.Fatal(err)
	}
	if _, err := gen.NextBatch(want); err != nil {
		t.Fatal(err)
	}

	// Pass 1: skip at the frontier (nothing recorded yet).
	src, err := c.Source(s, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]trace.Record, read)
	if n, err := src.(trace.Skipper).Skip(skip); err != nil || n != skip {
		t.Fatalf("frontier Skip = %d, %v", n, err)
	}
	if _, err := src.NextBatch(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("frontier-skip record %d diverged: %+v != %+v", i, got[i], want[i])
		}
	}

	// Pass 2: the skip recorded forward, so a second reader replays the
	// same region O(1) behind the frontier.
	src2, err := c.Source(s, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := src2.(trace.Skipper).Skip(skip); err != nil || n != skip {
		t.Fatalf("recorded Skip = %d, %v", n, err)
	}
	got2 := make([]trace.Record, read)
	if _, err := src2.NextBatch(got2); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got2[i] {
			t.Fatalf("replay-skip record %d diverged: %+v != %+v", i, got2[i], want[i])
		}
	}
}

// TestReleaseKeepsReplayers releases a stream while two replayers are
// part-way through it — one reading it on another goroutine, at the
// recording frontier — and checks that both finish with the generator's
// records, that the snapshot still accounts for every stream the cache
// recorded, and that a Source after the release records the stream
// again, record for record. The released stream's arenas are recycled
// only once both replayers are released: the second recording runs
// while one of them is paused mid-read, and a third, after both, records
// over the recycled arenas. Under the package's scribbling oracle an
// early reclaim shows up as wrong records. make replay-check runs it
// under -race -count=5.
func TestReleaseKeepsReplayers(t *testing.T) {
	const n = chunkRecs + 3*1024 // cross an arena boundary after the release
	s := spec(t, "433.milc")
	want := make([]trace.Record, n)
	gen, err := trace.NewGenerator(s, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.NextBatch(want); err != nil {
		t.Fatal(err)
	}
	// read fills got from src in 256-record batches. Once it has read
	// part of the stream it signals on half and, when resume is non-nil,
	// waits for it before reading on.
	read := func(src trace.Source, got []trace.Record, half chan<- struct{}, resume <-chan struct{}) error {
		for at := 0; at < len(got); at += 256 {
			if _, err := src.NextBatch(got[at:min(at+256, len(got))]); err != nil {
				return err
			}
			if half != nil && at == 4096 {
				close(half)
				if resume != nil {
					<-resume
				}
			}
		}
		return nil
	}
	check := func(what string, got []trace.Record) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d is %+v, want %+v", what, i, got[i], want[i])
			}
		}
	}
	snap := func(what string, c *Cache) Stats {
		t.Helper()
		st := c.Snapshot()
		if st.Misses != int64(st.Streams)+st.Evictions+st.Released {
			t.Fatalf("%s: snapshot loses a stream: %s", what, st)
		}
		return st
	}
	source := func(c *Cache) *Replayer {
		t.Helper()
		src, err := c.Source(s, 5, 0)
		if err != nil {
			t.Fatal(err)
		}
		return src.(*Replayer)
	}

	c := NewCache(0)
	a, b := source(c), source(c)
	gotA, gotB := make([]trace.Record, n), make([]trace.Record, n)
	half, resume := make(chan struct{}), make(chan struct{})
	errA := make(chan error, 1)
	go func() { errA <- read(a, gotA, half, resume) }()
	if err := read(b, gotB[:1024], nil, nil); err != nil {
		t.Fatal(err)
	}
	<-half
	c.Release(s, 5, 0)
	c.Release(s, 5, 0) // no longer resident: nothing more to drop
	if err := read(b, gotB[1024:], nil, nil); err != nil {
		t.Fatalf("released stream's replayer failed: %v", err)
	}
	check("replayer in flight at the release", gotB)
	b.Release()
	b.Release() // idempotent

	st := snap("after one release", c)
	if st.Released != 1 || st.Streams != 0 || st.Bytes != 0 || st.Records != 0 || st.FreeBytes != 0 {
		t.Fatalf("after one release: %s (%d bytes, %d records, %d free), want 1 released, nothing resident and nothing free while a replayer reads",
			st, st.Bytes, st.Records, st.FreeBytes)
	}

	// Record the stream again while the first recording still has a
	// reader: its arenas must not be recycled yet.
	again := source(c)
	gotC := make([]trace.Record, n)
	if err := read(again, gotC, nil, nil); err != nil {
		t.Fatal(err)
	}
	check("stream recorded again after the release", gotC)
	st = snap("after re-recording", c)
	if st.Misses != 2 || st.Streams != 1 || st.Bytes == 0 || st.Records < n || st.Reused != 0 {
		t.Fatalf("after re-recording: %s (%d records), want a second miss, one resident stream and no arena reused", st, st.Records)
	}

	close(resume)
	if err := <-errA; err != nil {
		t.Fatalf("released stream's concurrent replayer failed: %v", err)
	}
	check("concurrent replayer in flight at the release", gotA)
	a.Release()
	st = snap("after the last replayer's release", c)
	if st.FreeBytes != st.Bytes {
		t.Fatalf("after the released stream's last replayer: %d bytes free, want the stream's %d", st.FreeBytes, st.Bytes)
	}

	// Drop the second recording too, and record a third over the
	// recycled arenas.
	again.Release()
	c.Release(s, 5, 0)
	allocated := snap("after the second release", c).Allocated
	third := source(c)
	gotD := make([]trace.Record, n)
	if err := read(third, gotD, nil, nil); err != nil {
		t.Fatal(err)
	}
	check("stream recorded over recycled arenas", gotD)
	third.Release()
	st = snap("after recording over recycled arenas", c)
	if st.Allocated != allocated || st.Reused == 0 || st.FreeBytes != st.Bytes {
		t.Fatalf("recording over recycled arenas: %s (%d bytes allocated, %d before), want no new arena",
			st, st.Allocated, allocated)
	}
}
