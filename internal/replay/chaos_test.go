package replay

import (
	"errors"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestCorruptChunkFallsBackToGenerator locks the central degradation
// claim of the replay hardening: when a sealed arena chunk or page rots, a
// replayer crossing it switches to live regeneration and the records it
// serves are exactly what a cache-free run would have read — degraded,
// counted, never wrong.
func TestCorruptChunkFallsBackToGenerator(t *testing.T) {
	const n = 2*chunkRecs + 1024 // two sealed chunks plus a tail
	s := spec(t, "450.soplex")

	fault.Enable(1)
	// Rot the second flag chunk or value page sealed: hit 1 is the
	// first, hit 2 fires.
	fault.Set(fault.SiteReplayCorrupt, fault.Spec{Every: 1, After: 1, Limit: 1})
	defer fault.Disable()

	c := NewCache(0)
	src, err := c.Source(s, 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(s, 42, 0)
	if err != nil {
		t.Fatal(err)
	}

	corruptBefore := telemetry.Degraded.ReplayCorruptChunks.Load()
	fallbackBefore := telemetry.Degraded.ReplayFallbacks.Load()

	// First pass records (and, via injection, rots chunk 1). The frontier
	// reader generates straight into its batch, so pass one is still
	// correct by construction; the replay pass is the one that must
	// detect the rot and fail over.
	want := make([]trace.Record, 256)
	got := make([]trace.Record, 256)
	for read := 0; read < n; read += len(got) {
		if _, err := src.NextBatch(got); err != nil {
			t.Fatal(err)
		}
	}
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
				t.Fatalf("record %d diverged after fallback: generator %+v, replay %+v",
					read+i, want[i], got[i])
			}
		}
	}

	if d := telemetry.Degraded.ReplayCorruptChunks.Load() - corruptBefore; d != 1 {
		t.Errorf("ReplayCorruptChunks advanced by %d, want 1", d)
	}
	if d := telemetry.Degraded.ReplayFallbacks.Load() - fallbackBefore; d != 1 {
		t.Errorf("ReplayFallbacks advanced by %d, want 1", d)
	}
	st := c.Snapshot()
	if st.CorruptChunks != 1 || st.Fallbacks != 1 {
		t.Errorf("cache stats = %d corrupt / %d fallbacks, want 1/1", st.CorruptChunks, st.Fallbacks)
	}
	// The damaged stream must leave the pool so a later Source re-records.
	if st.Streams != 0 {
		t.Errorf("corrupt stream still resident: %d streams in pool", st.Streams)
	}
	if st.Bytes != 0 {
		t.Errorf("corrupt stream bytes still accounted: %d", st.Bytes)
	}
}

// TestCorruptChunkNextPath exercises the single-record read path's
// verify-and-failover branch, which TestCorruptChunkFallsBackToGenerator
// leaves cold.
func TestCorruptChunkNextPath(t *testing.T) {
	s := spec(t, "433.milc")

	fault.Enable(1)
	fault.Set(fault.SiteReplayCorrupt, fault.Spec{Every: 1, Limit: 1})
	defer fault.Disable()

	c := NewCache(0)
	src, err := c.Source(s, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(s, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Record one full chunk plus a little (the first page or chunk sealed
	// rots), then replay via Next.
	batch := make([]trace.Record, chunkRecs+64)
	if _, err := src.NextBatch(batch); err != nil {
		t.Fatal(err)
	}
	src.(trace.Rewinder).Rewind()
	var want, got trace.Record
	for i := 0; i < chunkRecs+64; i++ {
		if err := gen.Next(&want); err != nil {
			t.Fatal(err)
		}
		if err := src.(trace.Reader).Next(&got); err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("record %d diverged after fallback: generator %+v, replay %+v", i, want, got)
		}
	}
}

// TestSourceSiteInjectsTypedError checks the stream-acquisition site
// surfaces a clean typed error instead of a broken source.
func TestSourceSiteInjectsTypedError(t *testing.T) {
	fault.Enable(1)
	fault.Set(fault.SiteReplaySource, fault.Spec{Every: 1, Limit: 1})
	defer fault.Disable()

	c := NewCache(0)
	if _, err := c.Source(spec(t, "433.milc"), 1, 0); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Source error = %v, want fault.ErrInjected", err)
	}
	// The budget fired; the next acquisition must succeed untouched.
	src, err := c.Source(spec(t, "433.milc"), 1, 0)
	if err != nil || src == nil {
		t.Fatalf("second Source = (%v, %v), want a working source", src, err)
	}
}

// TestEvictSiteForcesEviction checks the forced-eviction site drops an
// LRU stream even with no byte budget, and that the victim's in-flight
// replayers keep working.
func TestEvictSiteForcesEviction(t *testing.T) {
	sA, sB := spec(t, "450.soplex"), spec(t, "433.milc")
	c := NewCache(0) // unlimited: only injection can evict

	victim, err := c.Source(sA, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]trace.Record, 512)
	if _, err := victim.NextBatch(batch); err != nil {
		t.Fatal(err) // make stream A resident with one arena
	}

	fault.Enable(1)
	fault.Set(fault.SiteReplayEvict, fault.Spec{Every: 1, Limit: 1})
	defer fault.Disable()

	grower, err := c.Source(sB, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := grower.NextBatch(batch); err != nil {
		t.Fatal(err) // growth of B fires the site and must evict A
	}

	st := c.Snapshot()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Streams != 1 {
		t.Fatalf("streams resident = %d, want 1 (the grower)", st.Streams)
	}
	// The evicted stream's replayer holds its reference and reads on.
	gen, err := trace.NewGenerator(sA, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Record, 512)
	victim.(trace.Rewinder).Rewind()
	if _, err := gen.NextBatch(want); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.NextBatch(batch); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != batch[i] {
			t.Fatalf("evicted stream's replayer diverged at %d", i)
		}
	}
}

// TestCorruptStreamReRecordsCleanly checks a Source call after a
// corruption drop gets a fresh, correct recording (injection off by
// then, as after a transient rot).
func TestCorruptStreamReRecordsCleanly(t *testing.T) {
	s := spec(t, "450.soplex")

	fault.Enable(1)
	fault.Set(fault.SiteReplayCorrupt, fault.Spec{Every: 1, Limit: 1})

	c := NewCache(0)
	src, err := c.Source(s, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]trace.Record, chunkRecs) // record chunk 0, rotting its first seal
	if _, err := src.NextBatch(batch); err != nil {
		t.Fatal(err)
	}
	src.(trace.Rewinder).Rewind()
	if _, err := src.NextBatch(batch); err != nil {
		t.Fatal(err) // trips verification, drops the stream
	}
	fault.Disable()

	fresh, err := c.Source(s, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(s, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Record, chunkRecs)
	for pass := 0; pass < 2; pass++ { // record pass, then replay pass
		gen.Rewind()
		fresh.(trace.Rewinder).Rewind()
		if _, err := gen.NextBatch(want); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.NextBatch(batch); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != batch[i] {
				t.Fatalf("pass %d: re-recorded stream diverged at %d", pass, i)
			}
		}
	}
}
