package replay

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/trace"
)

// fuzzBases are the address-space bases FuzzStreamRoundTrip packs
// against: core 0's, the second core's, and two that put data offsets
// at the edges of the 32-bit window.
var fuzzBases = [...]uint64{0, 1 << 42, 1 << 32, 0x1234_5000}

// fuzzRecords builds n records valid for the packer from the fuzz
// input. Each record's shape comes from one control byte (ctl read
// cyclically): bits 0-2 are its bools, bits 3-6 select Target, Load0,
// Load1 and Store, and bit 7 breaks the fall-through/target PC
// prediction. Values come from a splitmix sequence over seed, biased
// toward the window's edges. It also returns the records whose values
// start or straddle a value-page edge.
func fuzzRecords(seed uint64, n int, base uint64, ctl []byte) (recs []trace.Record, edges []int) {
	if len(ctl) == 0 {
		ctl = []byte{0}
	}
	x := seed
	rnd := func() uint32 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		v := uint32(z ^ z>>31)
		switch v & 7 { // a quarter of the values sit on a window edge
		case 0:
			return 1
		case 1:
			return ^uint32(0)
		}
		return v
	}
	recs = make([]trace.Record, n)
	var pred uint64 // the codec's prediction; its first PC always escapes
	logical := 0    // values appended so far
	for i := range recs {
		c := ctl[i%len(ctl)] ^ byte(i>>8)
		r := &recs[i]
		r.IsBranch, r.Taken, r.Dependent = c&1 != 0, c&2 != 0, c&4 != 0
		r.PC = pred
		if c&0x80 != 0 || pred>>32 != 0 {
			r.PC = uint64(rnd())
		}
		if c&0x10 != 0 {
			r.Load0 = base + uint64(rnd())
		}
		if c&0x20 != 0 {
			r.Load1 = base + uint64(rnd())
		}
		if c&0x40 != 0 {
			r.Store = base + uint64(rnd())
		}
		if c&0x08 != 0 {
			r.Target = uint64(rnd())
		}
		vals := bits.OnesCount8(c & 0x78)
		if r.PC != pred {
			vals++
		}
		pred = r.PC + 4
		if r.Target != 0 {
			pred = r.Target
		}
		// A page holds pageVals-1 values (slot 0 is reserved).
		if vals > 0 && (logical%(pageVals-1) == 0 || logical/(pageVals-1) != (logical+vals-1)/(pageVals-1)) {
			edges = append(edges, i)
		}
		logical += vals
	}
	return recs, edges
}

// FuzzStreamRoundTrip packs an arbitrary record sequence and reads it
// back every way a consumer can: NextBatch in fuzz-chosen batch sizes,
// Next one record at a time, and a fresh replayer after Skip to
// fuzz-chosen offsets and to every seek-index block, flag-chunk and
// value-page edge. Every path must return the packed records exactly.
// The stream is then released, and a second sequence recorded over its
// recycled (scribbled, then zeroed) arenas must read back as exactly.
func FuzzStreamRoundTrip(f *testing.F) {
	every := make([]byte, 256) // every flags combination in turn
	for i := range every {
		every[i] = byte(i)
	}
	f.Add(uint64(1), uint32(3*blockRecs+7), uint8(0), []byte{0})
	f.Add(uint64(2), uint32(chunkRecs+2*blockRecs), uint8(1), every)
	f.Add(uint64(3), uint32(40_000), uint8(2), []byte{0xf8, 0x78, 0x80, 0x08})
	f.Add(uint64(4), uint32(chunkRecs+1), uint8(3), []byte{0x09, 0x10, 0x00, 0x00, 0x03})
	f.Add(uint64(5), uint32(70_000), uint8(1), []byte{0xff})
	var noSpec trace.Spec
	fp := noSpec.Fingerprint()
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, baseSel uint8, ctl []byte) {
		base := fuzzBases[int(baseSel)%len(fuzzBases)]
		n %= chunkRecs + 3*blockRecs
		c := NewCache(0)
		recs, edges := fuzzRecords(seed, int(n), base, ctl)
		roundTrip(t, packStream(c, Key{Spec: fp, Base: base}, recs, seed), recs, edges, seed)
		c.Release(noSpec, 0, base)
		free := c.Snapshot().FreeBytes

		again, edges := fuzzRecords(^seed, int(n), base, ctl)
		s := packStream(c, Key{Spec: fp, Seed: 1, Base: base}, again, seed)
		if st := c.Snapshot(); free > 0 && st.Reused == 0 {
			t.Fatalf("second recording allocated afresh beside %d free bytes: %s", free, st)
		}
		unwritten(t, s)
		roundTrip(t, s, again, edges, seed)
	})
}

// unwritten requires every arena byte s's recording has not written yet
// to be zero, as in a new arena: each page's reserved slot 0, the tail
// chunk's flags and seek index past the published records, the tail
// page's slots past the few beyond the cursor that a record's
// unconditional stores touch, and both tails' seals.
func unwritten(t *testing.T, s *Stream) {
	t.Helper()
	pages := *s.pages.Load()
	for i, p := range pages {
		if p.vals[0] != 0 {
			t.Fatalf("page %d: reserved slot 0 holds %#x", i, p.vals[0])
		}
	}
	if chunks, j := *s.chunks.Load(), int(s.Len()&chunkMask); j > 0 {
		c := chunks[len(chunks)-1]
		for k, f := range c.flags[j:] {
			if f != 0 {
				t.Fatalf("tail chunk: unwritten flags byte %d holds %#x", j+k, f)
			}
		}
		for b := (j-1)>>blockShift + 1; b < chunkBlocks; b++ {
			if c.index[b] != (seekPoint{}) {
				t.Fatalf("tail chunk: unwritten seek-index entry %d holds %+v", b, c.index[b])
			}
		}
		if c.sum != 0 || c.state.Load() != sealOpen {
			t.Fatalf("tail chunk: open seal holds sum %#x, state %d", c.sum, c.state.Load())
		}
	}
	if pi := s.at.cur >> pageShift; pi < uint64(len(pages)) {
		p := pages[pi]
		for o := min(s.at.cur&pageMask+maxVals, pageVals); o < pageVals; o++ {
			if p.vals[o] != 0 {
				t.Fatalf("tail page: unwritten slot %d holds %#x", o, p.vals[o])
			}
		}
		if p.sum != 0 || p.state.Load() != sealOpen {
			t.Fatalf("tail page: open seal holds sum %#x, state %d", p.sum, p.state.Load())
		}
	}
}

// packStream records recs into a new stream that c owns under key, in
// seed-chosen pieces as frontier readers of different batch sizes would.
func packStream(c *Cache, key Key, recs []trace.Record, seed uint64) *Stream {
	s := newStream(key, trace.Spec{}, nil, c)
	c.mu.Lock()
	c.streams[key] = &entry{stream: s}
	c.mu.Unlock()
	s.mu.Lock()
	for i, k := 0, 0; i < len(recs); k++ {
		piece := min(len(recs)-i, 1+int(seed>>(k%48)&0x3fff))
		s.pack(recs[i : i+piece])
		i += piece
	}
	s.mu.Unlock()
	return s
}

// reader opens a counted replayer of s, under its cache's mutex as
// Cache.Source does.
func reader(s *Stream) *Replayer {
	if s.owner != nil {
		s.owner.mu.Lock()
		defer s.owner.mu.Unlock()
	}
	return s.newReplayer()
}

// roundTrip reads the packed recs back from s every way a consumer can
// (see FuzzStreamRoundTrip), releasing each replayer it opens.
func roundTrip(t *testing.T, s *Stream, recs []trace.Record, edges []int, seed uint64) {
	t.Helper()
	same := func(path string, from int, got []trace.Record) {
		t.Helper()
		for i := range got {
			if got[i] != recs[from+i] {
				t.Fatalf("%s: record %d = %+v, want %+v", path, from+i, got[i], recs[from+i])
			}
		}
	}

	r := reader(s)
	buf := make([]trace.Record, 4096)
	for i, k := 0, 0; i < len(recs); k++ {
		size := min(len(recs)-i, 1+int(seed>>(k%56)&0xfff))
		if _, err := r.NextBatch(buf[:size]); err != nil {
			t.Fatal(err)
		}
		same("NextBatch", i, buf[:size])
		i += size
	}
	r.Release()

	r = reader(s)
	var rec trace.Record
	for i := range recs {
		if err := r.Next(&rec); err != nil {
			t.Fatal(err)
		}
		same("Next", i, []trace.Record{rec})
	}
	r.Release()

	offs := []int{0, blockRecs - 1, blockRecs, blockRecs + 1, chunkRecs - 1, chunkRecs, chunkRecs + 1,
		int(seed % uint64(len(recs)+1)), len(recs) - 1, len(recs)}
	for _, e := range edges {
		offs = append(offs, e, e+1)
	}
	for _, off := range offs {
		if off < 0 || off > len(recs) {
			continue
		}
		r = reader(s)
		if got, err := r.Skip(uint64(off)); err != nil || got != uint64(off) {
			t.Fatalf("Skip(%d) = %d, %v", off, got, err)
		}
		size := min(len(recs)-off, 1+blockRecs+int(seed&0xff))
		if _, err := r.NextBatch(buf[:size]); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("Skip(%d)", off), off, buf[:size])
		r.Release()
	}

	// One replayer alternating fuzz-sized skips and reads.
	r = reader(s)
	defer r.Release()
	for i, k := 0, 0; i < len(recs); k++ {
		hop := min(len(recs)-i, int(seed>>(k%52)&0x7ff))
		if _, err := r.Skip(uint64(hop)); err != nil {
			t.Fatal(err)
		}
		i += hop
		size := min(len(recs)-i, 1+int(seed>>(k%44)&0xff))
		if _, err := r.NextBatch(buf[:size]); err != nil {
			t.Fatal(err)
		}
		same("Skip/NextBatch", i, buf[:size])
		i += size
	}
}

// TestPackPanicsOutsideWindow pins the 32-bit window: a value that does
// not fit its 32-bit slot must stop the recording, never pack silently
// truncated.
func TestPackPanicsOutsideWindow(t *testing.T) {
	const base = 1 << 42
	for name, rec := range map[string]trace.Record{
		"data beyond window": {PC: 0x1000, Load0: base + 1<<32},
		"data below base":    {PC: 0x1000, Store: base - 64},
		"escaped PC":         {PC: 1 << 33},
		"target":             {PC: 0x1000, IsBranch: true, Target: 1 << 32},
	} {
		t.Run(name, func(t *testing.T) {
			s := newStream(Key{Base: base}, trace.Spec{}, nil, nil)
			defer func() {
				if recover() == nil {
					t.Fatalf("packing %+v did not panic", rec)
				}
			}()
			s.mu.Lock()
			defer s.mu.Unlock()
			s.pack([]trace.Record{rec})
		})
	}
}

// TestAllPresetsReplayDensity is the codec's whole-workload guard: every
// preset, at two seeds and at core 0's and the second core's address
// bases, records 300k records (through four flag-chunk edges), replays
// them exactly as a fresh generator produces them, and stays under 4
// bytes per record.
func TestAllPresetsReplayDensity(t *testing.T) {
	const n = 300_000
	for _, name := range trace.Names() {
		for _, seed := range []uint64{1, 2} {
			for _, base := range []uint64{0, 1 << 42} {
				t.Run(fmt.Sprintf("%s/%d/%#x", name, seed, base), func(t *testing.T) {
					t.Parallel()
					s := spec(t, name)
					c := NewCache(0)
					src, err := c.Source(s, seed, base)
					if err != nil {
						t.Fatal(err)
					}
					gen, err := trace.NewGenerator(s, seed, base)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]trace.Record, 4096)
					got := make([]trace.Record, 4096)
					for read := 0; read < n; read += len(got) {
						if _, err := src.NextBatch(got); err != nil {
							t.Fatal(err)
						}
					}
					src.Rewind()
					for read := 0; read < n; read += len(got) {
						if _, err := gen.NextBatch(want); err != nil {
							t.Fatal(err)
						}
						if _, err := src.NextBatch(got); err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if want[i] != got[i] {
								t.Fatalf("record %d replayed %+v, generated %+v", read+i, got[i], want[i])
							}
						}
					}
					st := c.Snapshot()
					if st.Records < n {
						t.Fatalf("recorded %d records, want >= %d", st.Records, n)
					}
					d := float64(st.Bytes) / float64(st.Records)
					if d > 4.0 {
						t.Fatalf("%.2f B/record (%d bytes for %d records), want <= 4.0", d, st.Bytes, st.Records)
					}
					t.Logf("%.2f B/record", d)
				})
			}
		}
	}
}

// TestConcurrentSkipAndRead runs replayers that alternate Skip and
// NextBatch in different strides on one cold stream, so each one in
// turn records at the frontier while the others seek and decode behind
// it. Every record read must be the generator's. The stream is released
// while they read and each replayer is released as it finishes, so the
// arenas are recycled only after the slowest one; a stream recorded
// after that reuses them. Run under -race by make ci and by make
// replay-check at -count=5.
func TestConcurrentSkipAndRead(t *testing.T) {
	const n = 2*chunkRecs + 5000
	s := spec(t, "470.lbm")
	gen, err := trace.NewGenerator(s, 3, 1<<42)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Record, n+4096)
	if _, err := gen.NextBatch(want); err != nil {
		t.Fatal(err)
	}
	c := NewCache(0)
	var wg sync.WaitGroup
	started := make(chan struct{}, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := c.Source(s, 3, 1<<42)
			started <- struct{}{}
			if err != nil {
				t.Error(err)
				return
			}
			defer src.(*Replayer).Release()
			buf := make([]trace.Record, 97+61*w)
			for pos := 0; pos < n; {
				hop := (131*w + pos) % 1500
				if _, err := src.(trace.Skipper).Skip(uint64(hop)); err != nil {
					t.Error(err)
					return
				}
				pos += hop
				if _, err := src.NextBatch(buf); err != nil {
					t.Error(err)
					return
				}
				for i := range buf {
					if buf[i] != want[pos+i] {
						t.Errorf("reader %d: record %d = %+v, want %+v", w, pos+i, buf[i], want[pos+i])
						return
					}
				}
				pos += len(buf)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-started
	}
	c.Release(s, 3, 1<<42)
	wg.Wait()
	if st := c.Snapshot(); st.FreeBytes == 0 || st.Reused != 0 {
		t.Fatalf("after the last replayer of the released stream: %s, want its arenas free", st)
	}
	src, err := c.Source(s, 3, 1<<42)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]trace.Record, n)
	if _, err := src.NextBatch(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("stream recorded over recycled arenas: record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if st := c.Snapshot(); st.Reused == 0 {
		t.Fatalf("stream recorded after the release: %s, want recycled arenas reused", st)
	}
}
