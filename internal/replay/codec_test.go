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
	f.Fuzz(func(t *testing.T, seed uint64, n uint32, baseSel uint8, ctl []byte) {
		base := fuzzBases[int(baseSel)%len(fuzzBases)]
		recs, edges := fuzzRecords(seed, int(n%(chunkRecs+3*blockRecs)), base, ctl)

		// Pack in fuzz-chosen pieces, as frontier readers of different
		// batch sizes would.
		s := newStream(Key{Base: base}, trace.Spec{}, nil, nil)
		s.mu.Lock()
		for i, k := 0, 0; i < len(recs); k++ {
			piece := min(len(recs)-i, 1+int(seed>>(k%48)&0x3fff))
			s.pack(recs[i : i+piece])
			i += piece
		}
		s.mu.Unlock()

		same := func(path string, from int, got []trace.Record) {
			t.Helper()
			for i := range got {
				if got[i] != recs[from+i] {
					t.Fatalf("%s: record %d = %+v, want %+v", path, from+i, got[i], recs[from+i])
				}
			}
		}

		r := s.NewReplayer()
		buf := make([]trace.Record, 4096)
		for i, k := 0, 0; i < len(recs); k++ {
			size := min(len(recs)-i, 1+int(seed>>(k%56)&0xfff))
			if _, err := r.NextBatch(buf[:size]); err != nil {
				t.Fatal(err)
			}
			same("NextBatch", i, buf[:size])
			i += size
		}

		r = s.NewReplayer()
		var rec trace.Record
		for i := range recs {
			if err := r.Next(&rec); err != nil {
				t.Fatal(err)
			}
			same("Next", i, []trace.Record{rec})
		}

		offs := []int{0, blockRecs - 1, blockRecs, blockRecs + 1, chunkRecs - 1, chunkRecs, chunkRecs + 1,
			int(seed % uint64(len(recs)+1)), len(recs) - 1, len(recs)}
		for _, e := range edges {
			offs = append(offs, e, e+1)
		}
		for _, off := range offs {
			if off < 0 || off > len(recs) {
				continue
			}
			r = s.NewReplayer()
			if got, err := r.Skip(uint64(off)); err != nil || got != uint64(off) {
				t.Fatalf("Skip(%d) = %d, %v", off, got, err)
			}
			size := min(len(recs)-off, 1+blockRecs+int(seed&0xff))
			if _, err := r.NextBatch(buf[:size]); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("Skip(%d)", off), off, buf[:size])
		}

		// One replayer alternating fuzz-sized skips and reads.
		r = s.NewReplayer()
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
	})
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
// it. Every record read must be the generator's. Run under -race by
// make ci.
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
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, err := c.Source(s, 3, 1<<42)
			if err != nil {
				t.Error(err)
				return
			}
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
	wg.Wait()
}
