package replay

import (
	"os"
	"testing"

	"repro/internal/fault"
	"repro/internal/trace"
)

// TestMain runs the package's tests under the use-after-recycle oracle:
// every arena a cache reclaims is scribbled before it joins the free
// list, so an arena reclaimed while a replayer still reads it shows up
// as wrong records, and a recycled arena that is not fully zeroed shows
// up in the stream recorded over it.
func TestMain(m *testing.M) {
	scribbleReclaimed = true
	os.Exit(m.Run())
}

// generated returns the first n records of the generator for (s, seed,
// base).
func generated(t *testing.T, s trace.Spec, seed, base uint64, n int) []trace.Record {
	t.Helper()
	gen, err := trace.NewGenerator(s, seed, base)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	if _, err := gen.NextBatch(recs); err != nil {
		t.Fatal(err)
	}
	return recs
}

// readAndCheck reads want's records from r, from position at on, in
// 256-record batches and fails on the first that differs.
func readAndCheck(t *testing.T, what string, r *Replayer, want []trace.Record, at int) {
	t.Helper()
	got := make([]trace.Record, 256)
	for ; at < len(want); at += len(got) {
		b := got[:min(len(got), len(want)-at)]
		if _, err := r.NextBatch(b); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for i := range b {
			if b[i] != want[at+i] {
				t.Fatalf("%s: record %d is %+v, want %+v", what, at+i, b[i], want[at+i])
			}
		}
	}
}

// TestReclaimWaitsForReaders drops a stream mid-read, by Release and by
// a forced eviction, records another stream while the first read is
// paused, then finishes the first read. Both reads must return their
// generators' records: the dropped stream's arenas may be recycled only
// after its replayer's release, and then a third recording reuses them.
func TestReclaimWaitsForReaders(t *testing.T) {
	const n = chunkRecs + 5000 // past the first flag chunk and several pages
	sA, sB := spec(t, "450.soplex"), spec(t, "433.milc")
	wantA := generated(t, sA, 7, 0, n)
	wantB := generated(t, sB, 8, 0, n)
	for _, drop := range []string{"release", "evict"} {
		t.Run(drop, func(t *testing.T) {
			c := NewCache(0)
			srcA, err := c.Source(sA, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			a := srcA.(*Replayer)
			readAndCheck(t, "first stream before the drop", a, wantA[:chunkRecs+1000], 0)
			if drop == "release" {
				c.Release(sA, 7, 0)
			}
			srcB, err := c.Source(sB, 8, 0)
			if err != nil {
				t.Fatal(err)
			}
			b := srcB.(*Replayer)
			if drop == "evict" {
				// The second stream's first arena evicts the first.
				fault.Enable(1)
				fault.Set(fault.SiteReplayEvict, fault.Spec{Every: 1, Limit: 1})
				defer fault.Disable()
			}
			readAndCheck(t, "second stream, recorded while the first is dropped mid-read", b, wantB, 0)
			fault.Disable()
			if st := c.Snapshot(); st.Streams != 1 || st.Reused != 0 {
				t.Fatalf("after dropping the first stream (%s) and recording the second: %s, want one stream and no arena reused", drop, st)
			}
			readAndCheck(t, "first stream finished after its drop", a, wantA, chunkRecs+1000)
			a.Release()
			if st := c.Snapshot(); st.FreeBytes == 0 {
				t.Fatalf("dropped stream's last replayer released: %s, want its arenas free", st)
			}

			// Drop the second stream as well and record the first again,
			// over recycled arenas.
			b.Release()
			c.Release(sB, 8, 0)
			srcA, err = c.Source(sA, 7, 0)
			if err != nil {
				t.Fatal(err)
			}
			again := srcA.(*Replayer)
			readAndCheck(t, "first stream recorded over recycled arenas", again, wantA, 0)
			again.Rewind()
			readAndCheck(t, "first stream replayed from recycled arenas", again, wantA, 0)
			again.Release()
			if st := c.Snapshot(); st.Reused == 0 {
				t.Fatalf("recording after two drops: %s, want recycled arenas reused", st)
			}
		})
	}
}

// TestCorruptStreamNeverRecycled checks a stream dropped because an
// arena failed verification never gives its arenas back to the cache,
// whether the verification failure drops it or finds it already evicted,
// while a clean stream dropped from the same cache does.
func TestCorruptStreamNeverRecycled(t *testing.T) {
	s := spec(t, "450.soplex")
	arenas := func(r *Replayer) map[any]bool {
		seen := map[any]bool{}
		for _, ch := range *r.s.chunks.Load() {
			seen[ch] = true
		}
		for _, p := range *r.s.pages.Load() {
			seen[p] = true
		}
		return seen
	}
	for _, order := range []string{"corrupt", "evict-then-corrupt"} {
		t.Run(order, func(t *testing.T) {
			defer fault.Disable()
			c := NewCache(0)
			src, err := c.Source(s, 11, 0)
			if err != nil {
				t.Fatal(err)
			}
			r := src.(*Replayer)
			batch := make([]trace.Record, chunkRecs)
			fault.Enable(1)
			fault.Set(fault.SiteReplayCorrupt, fault.Spec{Every: 1, Limit: 1})
			if _, err := r.NextBatch(batch); err != nil { // seals chunk 0, rotted
				t.Fatal(err)
			}
			fault.Disable()
			rotten := arenas(r)
			if order == "evict-then-corrupt" {
				grower, err := c.Source(spec(t, "433.milc"), 12, 0)
				if err != nil {
					t.Fatal(err)
				}
				fault.Enable(1)
				fault.Set(fault.SiteReplayEvict, fault.Spec{Every: 1, Limit: 1})
				if _, err := grower.NextBatch(batch[:256]); err != nil {
					t.Fatal(err)
				}
				fault.Disable()
				grower.(*Replayer).Release()
				if st := c.Snapshot(); st.Evictions != 1 {
					t.Fatalf("forced eviction: %s, want the rotten stream evicted", st)
				}
			}
			r.Rewind()
			readAndCheck(t, "replayer failing over from the rotten chunk", r, generated(t, s, 11, 0, chunkRecs), 0)
			r.Release()
			st := c.Snapshot()
			if st.CorruptChunks != 1 || st.Fallbacks != 1 {
				t.Fatalf("after the rot: %s, want one corrupt chunk and one fallback", st)
			}

			// Nothing is free, so a fresh recording allocates: none of its
			// arenas may be one of the rotten stream's.
			if st.FreeBytes != 0 {
				t.Fatalf("after the rotten stream's last replayer: %s, %d bytes free, want none", st, st.FreeBytes)
			}
			src, err = c.Source(s, 20, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh := src.(*Replayer)
			readAndCheck(t, "fresh stream", fresh, generated(t, s, 20, 0, chunkRecs+256), 0)
			for a := range arenas(fresh) {
				if rotten[a] {
					t.Fatalf("a stream recorded after the rot reuses one of the rotten stream's arenas")
				}
			}
			fresh.Release()

			// A clean stream dropped from the same cache is recycled.
			c.Release(s, 20, 0)
			if st := c.Snapshot(); st.FreeBytes == 0 {
				t.Fatalf("clean stream dropped without readers: %s, want its arenas free", st)
			}
		})
	}
}
