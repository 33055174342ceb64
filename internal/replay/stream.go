// Package replay records the post-generator instruction stream of a
// workload once and replays it read-only across every simulation that
// shares the stream — the campaign-level analogue of checkpoint-style
// simulation-interval reuse. A P_Induce sweep runs the same workload at
// many injection probabilities; only the injection events differ, so the
// deterministic synthetic generator re-derives an identical instruction
// stream for every point. Recording that stream on first use and
// replaying it for the rest of the campaign removes the generator
// (~26 ns/instruction) from all but one run per stream.
//
// Streams are stored presence-coded: one flags byte per record (branch
// outcome, dependence hint, and which operands the record carries) plus
// one append-only log of the 32-bit values the record actually has —
// data addresses packed against the stream's address-space base, and
// the PC only when it breaks the fall-through/branch-target prediction.
// A record carries about half an operand on average, so a stream costs
// about 3 bytes per record. Streams grow at the frontier: a stream is
// keyed by (spec fingerprint, seed, base) only, not by run length, so
// runs with different warm-up/ROI budgets share one stream and simply
// grow the recording as far as any consumer reads. The reader at the
// frontier generates straight into its consumer's batch and packs the
// same records into the arena as a side effect, so the recording run
// pays only the pack — no staging buffer, no decode-back, and no
// overgenerated tail. Published records are immutable; replay behind the
// frontier is lock-free and allocation-free. A Cache recycles the arenas
// of a stream it has dropped once the stream's last replayer is
// released.
package replay

import (
	"hash/crc32"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Key identifies one recorded stream: everything the generator's output
// depends on. Run length is deliberately absent — streams extend on
// demand — so sweeps with different warm-up/ROI budgets still share.
type Key struct {
	// Spec is the workload spec's content fingerprint
	// (trace.Spec.Fingerprint), never a pointer identity.
	Spec string
	// Seed is the generator seed (already offset per core by the
	// simulator).
	Seed uint64
	// Base is the core's address-space base.
	Base uint64
}

const (
	chunkShift = 16
	chunkRecs  = 1 << chunkShift // records per flag chunk
	chunkMask  = chunkRecs - 1

	blockShift  = 10
	blockRecs   = 1 << blockShift // records per seek-index entry
	blockMask   = blockRecs - 1
	chunkBlocks = chunkRecs / blockRecs

	pageShift = 14
	pageVals  = 1 << pageShift // 32-bit slots per value page (64 KiB)
	pageMask  = pageVals - 1

	// maxVals is the most values one record can carry: an escaped PC,
	// two loads, a store and a target.
	maxVals = 5
)

// Flag bits of the per-record flags byte. The low three are the
// record's bools; the high five mark which values the record appended
// to the value log, which holds them in the order PC, Load0, Load1,
// Store, Target.
const (
	flagBranch    = 1 << 0
	flagTaken     = 1 << 1
	flagDependent = 1 << 2
	hasTarget     = 1 << 3
	hasLoad0      = 1 << 4
	hasLoad1      = 1 << 5
	hasStore      = 1 << 6
	pcEscape      = 1 << 7 // PC differs from its prediction and is logged
)

// seal is the integrity lifecycle shared by flag chunks and value pages.
// sum is the crc32c of the owner's data, computed once when it fills
// (seals); it is published by the sealed state store and immutable
// after, so readers that observe state >= sealSealed read a stable sum.
type seal struct {
	sum   uint32
	state atomic.Uint32
}

// Integrity states. A chunk or page under recording is unsealed (its
// tail is still being written; reads below the published length are
// safe without verification because nothing rewrites published
// records). Filling it seals it with a checksum; the first reader to
// decode from a sealed one verifies the whole of it once and promotes it
// to verified — or demotes it to corrupt, after which every reader falls
// back to live regeneration instead of decoding damaged records.
const (
	sealOpen = iota
	sealSealed
	sealVerified
	sealCorrupt
)

// chunk holds the flags bytes of chunkRecs records plus the seek index
// of their blocks. Records below the stream's published length are
// immutable; the tail of the last chunk is written only under the
// stream's mutex.
type chunk struct {
	flags [chunkRecs]uint8
	// index[b] is the decoder state at the chunk's record b*blockRecs,
	// so a seek starts at most one block's walk from its target.
	index [chunkBlocks]seekPoint
	seal
}

// seekPoint is the decoder state at one record: the value-log cursor of
// its first value and the PC the record is predicted to have.
type seekPoint struct {
	cur, pred uint64
}

// page is one fixed-size page of the value log. Slot 0 of every page is
// reserved and stays zero: the cursor never points at it, and the
// branchless decode reads it for every field a record does not carry,
// so an absent field decodes to 0 without reading a slot that a
// concurrent recording may be writing.
//
// Values are packed to 32 bits: code addresses (PC, Target) are stored
// absolute — the generator places code at a fixed sub-4GiB base — and
// data addresses as offsets from the stream's address-space base.
// Recording validates every value and panics if a spec's footprint
// escapes the 32-bit window; presets are megabytes, so only a
// pathological ad-hoc spec can trip it, and such a campaign should run
// with the replay cache off.
type page struct {
	vals [pageVals]uint32
	seal
}

// Accounted sizes of one flag chunk (its seek index included) and one
// value page.
const (
	chunkBytes = int64(unsafe.Sizeof(chunk{}))
	pageBytes  = int64(unsafe.Sizeof(page{}))
)

// emptyPage stands in for a value page that does not exist yet: the
// records behind the published length that a replayer decodes from it
// carry no values, so the decode only ever reads its zero slot 0.
var emptyPage page

// data views the chunk's checksummed span: the flags and the index.
func (c *chunk) data() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(c)), unsafe.Offsetof(c.seal))
}

// data views the page's checksummed span: every slot.
func (p *page) data() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&p.vals)), len(p.vals)*4)
}

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64
// and arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// close seals a filled chunk or page over its data. The replay.corrupt
// fault site damages one byte of the data AFTER the checksum — exactly
// the bit-rot shape verification must catch before any consumer decodes
// it. The sealed-state store publishes sum (release) before the
// stream's length admits readers past it.
func (s *seal) close(data []byte, rot int) {
	s.sum = crc32.Checksum(data, crcTable)
	if fault.Fires(fault.SiteReplayCorrupt) {
		data[rot] ^= 1
	}
	s.state.Store(sealSealed)
}

// fieldBits are the presence bits of a record's values, in log order.
var fieldBits = [maxVals]uint8{pcEscape, hasLoad0, hasLoad1, hasStore, hasTarget}

// layout locates the values of a record with a given flags byte. slot[i]
// is field i's slot (in log order) relative to the slot before the
// record's first value, slot[maxVals] is how many values the record
// has, and mask[i] is all ones when the record has field i. A field the
// record lacks points at the slot before it, which always holds a
// published value or the page's zero slot, so the decode reads every
// field unconditionally and masks it.
type layout struct {
	slot [8]uint8
	mask [maxVals]uint64
	// bools is the in-memory image of trace.Record's three contiguous
	// bool fields (plus one padding byte), letting the decode write all
	// three with a single 4-byte store. It is built from real Records at
	// init, so it is correct for any byte order; init proves the layout
	// assumption.
	bools uint32
}

// layouts is indexed by flags byte.
var layouts [256]layout

// brShift/tkShift/dpShift are the bit positions of the three bools
// inside that 4-byte image, derived at init from the image itself so
// the pack loop matches the decode table on any byte order.
var brShift, tkShift, dpShift uint

func init() {
	var r trace.Record
	if unsafe.Offsetof(r.Taken) != unsafe.Offsetof(r.IsBranch)+1 ||
		unsafe.Offsetof(r.Dependent) != unsafe.Offsetof(r.IsBranch)+2 ||
		unsafe.Offsetof(r.IsBranch)+4 > unsafe.Sizeof(r) {
		panic("replay: trace.Record bool layout changed; update the flags decode")
	}
	var boolPat [8]uint32
	for f := range boolPat {
		r = trace.Record{
			IsBranch:  f&flagBranch != 0,
			Taken:     f&flagTaken != 0,
			Dependent: f&flagDependent != 0,
		}
		boolPat[f] = *(*uint32)(unsafe.Pointer(&r.IsBranch))
	}
	for _, f := range [...]int{flagBranch, flagTaken, flagDependent} {
		if bits.OnesCount32(boolPat[f]) != 1 {
			panic("replay: bool true is not a single set bit; update the flags encode")
		}
	}
	brShift = uint(bits.TrailingZeros32(boolPat[flagBranch]))
	tkShift = uint(bits.TrailingZeros32(boolPat[flagTaken]))
	dpShift = uint(bits.TrailingZeros32(boolPat[flagDependent]))

	for f := range layouts {
		l := &layouts[f]
		n := uint8(0)
		for i, bit := range fieldBits {
			if uint8(f)&bit != 0 {
				n++
				l.mask[i] = ^uint64(0)
			}
			l.slot[i] = n
		}
		l.slot[maxVals] = n
		l.bools = boolPat[f&7]
	}
}

// Stream is one recorded instruction stream. The recorded prefix is
// append-only: readers below the published length never synchronise; the
// reader at the frontier records under the stream's mutex (so concurrent
// first-users of a cold stream share one recording instead of recording
// twice) and every later reader replays for free.
type Stream struct {
	key Key
	// spec is the workload spec the stream was recorded from, kept so a
	// corrupt-arena failover can rebuild an equivalent generator.
	spec trace.Spec

	// mu serialises recording: the generator's state, the encoder state
	// below and the tails of the last chunk and page are only touched
	// with it held.
	mu  sync.Mutex
	gen *trace.Generator
	// at is the encoder state at the frontier: the next free value-log
	// slot and the next record's predicted PC.
	at seekPoint

	// chunks and pages are the append-only arena lists and n the
	// published record count. A new chunk or page is appended (in place
	// when the backing array has room: no reader looks past its own
	// snapshot's length) and the list republished before n admits its
	// records, so a reader that observes n >= need and then loads the
	// lists sees every chunk and page covering need.
	chunks atomic.Pointer[[]*chunk]
	pages  atomic.Pointer[[]*page]
	n      atomic.Uint64

	// owner, when non-nil, is the cache accounting this stream's arena
	// bytes and integrity events and supplying its arenas. Its arena
	// hooks are called with mu held; the cache must not call back into
	// the stream.
	owner *Cache

	bytes int64 // accounted arena bytes, guarded by mu

	// readers counts the replayers not yet released; dropped is set once
	// the owner no longer pools the stream, corrupt once an arena failed
	// verification. The owner reclaims the arenas of a dropped stream
	// without readers unless it is corrupt. Guarded by owner.mu.
	readers          int
	dropped, corrupt bool
}

// newStream builds an empty recording over gen. owner may be nil. Its
// first value goes to slot 1: slot 0 of every page is reserved.
func newStream(key Key, spec trace.Spec, gen *trace.Generator, owner *Cache) *Stream {
	s := &Stream{key: key, spec: spec, gen: gen, owner: owner, at: seekPoint{cur: 1}}
	s.chunks.Store(new([]*chunk))
	s.pages.Store(new([]*page))
	return s
}

// Key returns the stream's identity.
func (s *Stream) Key() Key { return s.key }

// Len returns the number of records recorded so far.
func (s *Stream) Len() uint64 { return s.n.Load() }

// Bytes returns the stream's accounted arena footprint.
func (s *Stream) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// newChunk returns a zeroed flag chunk for the recording, reused from
// the owner's free list when it has one. Called with mu held.
func (s *Stream) newChunk() *chunk {
	s.bytes += chunkBytes
	if s.owner != nil {
		if c := takeArena(s.owner, s, &s.owner.freeChunks, chunkBytes); c != nil {
			*c = chunk{}
			return c
		}
	}
	return new(chunk)
}

// newPage is newChunk for a value page.
func (s *Stream) newPage() *page {
	s.bytes += pageBytes
	if s.owner != nil {
		if p := takeArena(s.owner, s, &s.owner.freePages, pageBytes); p != nil {
			*p = page{}
			return p
		}
	}
	return new(page)
}

// tail returns the slots of the page the encoder's cursor is in, nil
// until that page exists. Called with mu held.
func (s *Stream) tail() *[pageVals]uint32 {
	pages := *s.pages.Load()
	if pi := s.at.cur >> pageShift; pi < uint64(len(pages)) {
		return &pages[pi].vals
	}
	return nil
}

// put appends one value to the log at the encoder's cursor, allocating
// the page on its first value and sealing it on its last. Called with
// mu held.
func (s *Stream) put(v uint32) {
	pages := *s.pages.Load()
	pi := int(s.at.cur >> pageShift)
	if pi == len(pages) {
		// Appending past the published length is safe: readers of the
		// old slice header never look beyond it.
		grown := append(pages, s.newPage())
		s.pages.Store(&grown)
		pages = grown
	}
	p := pages[pi]
	p.vals[s.at.cur&pageMask] = v
	if s.at.cur++; s.at.cur&pageMask == 0 {
		p.close(p.data(), 4) // slot 1: slot 0 is the reserved zero
		s.at.cur++
	}
}

// record generates the next len(out) records of the stream directly into
// out and packs them into the arena, returning len(out) and the decoder
// state after them. The caller must be positioned exactly at the
// frontier (pos == Len()); if another reader recorded past pos first,
// record returns 0 and the caller re-reads the now-published prefix
// instead.
func (s *Stream) record(pos uint64, out []trace.Record) (int, seekPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n.Load() != pos {
		return 0, seekPoint{}
	}
	// The generator never ends a stream (it implements an infinite
	// synthetic workload), so a full batch always arrives.
	n, err := s.gen.NextBatch(out)
	if err != nil || n != len(out) {
		panic("replay: generator ended an infinite stream")
	}
	s.pack(out)
	return len(out), s.at
}

// pack appends recs to the recording at the frontier and publishes
// them. Called with mu held.
func (s *Stream) pack(recs []trace.Record) {
	pos := s.n.Load()
	base := s.key.Base
	chunks := *s.chunks.Load()
	vals := s.tail()
	for i := 0; i < len(recs); {
		idx := int((pos + uint64(i)) >> chunkShift)
		if idx == len(chunks) {
			grown := append(chunks, s.newChunk())
			s.chunks.Store(&grown)
			chunks = grown
		}
		c := chunks[idx]
		j := int((pos + uint64(i)) & chunkMask)
		seg := min(chunkRecs-j, len(recs)-i)
		src := recs[i : i+seg : i+seg]
		fl := c.flags[j : j+seg : j+seg]
		// The bool triple is read as one 4-byte word (layout and 0/1
		// representation asserted at init) and recombined into the flags
		// byte via the init-derived bit positions. Every stored value is
		// OR-accumulated into hi and the 32-bit window is checked once
		// per segment; a data address below the base wraps and trips it.
		var hi uint64
		for k := range src {
			if (j+k)&blockMask == 0 {
				c.index[(j+k)>>blockShift] = s.at
			}
			rec := &src[k]
			w := uint64(*(*uint32)(unsafe.Pointer(&rec.IsBranch)))
			// The record's values in log order, and whether it has each.
			v := [maxVals]uint64{rec.PC, rec.Load0 - base, rec.Load1 - base, rec.Store - base, rec.Target}
			has := [maxVals]uint64{b2u(rec.PC != s.at.pred), b2u(rec.Load0 != 0),
				b2u(rec.Load1 != 0), b2u(rec.Store != 0), b2u(rec.Target != 0)}
			fl[k] = uint8((w>>brShift)&1 | ((w>>tkShift)&1)<<1 | ((w>>dpShift)&1)<<2 |
				has[4]<<3 | has[1]<<4 | has[2]<<5 | has[3]<<6 | has[0]<<7)
			hi |= v[0]&-has[0] | v[1]&-has[1] | v[2]&-has[2] | v[3]&-has[3] | v[4]
			// The next PC is predicted to be this record's target when it
			// has one, its fall-through otherwise.
			s.at.pred = rec.Target | (rec.PC+4)&(has[4]-1)
			if o := s.at.cur & pageMask; vals != nil && o < pageVals-maxVals {
				// The page has room for every value: write each one and
				// advance past those the record has. The others land in
				// unpublished slots that later values overwrite.
				vals[o] = uint32(v[0])
				o += has[0]
				vals[o&pageMask] = uint32(v[1])
				o += has[1]
				vals[o&pageMask] = uint32(v[2])
				o += has[2]
				vals[o&pageMask] = uint32(v[3])
				o += has[3]
				vals[o&pageMask] = uint32(v[4])
				o += has[4]
				s.at.cur = s.at.cur&^pageMask | o
				continue
			}
			for x := range v {
				if has[x] != 0 {
					s.put(uint32(v[x]))
				}
			}
			vals = s.tail()
		}
		if hi>>32 != 0 {
			panic("replay: address outside the stream's 32-bit window; " +
				"run this spec with the replay cache off")
		}
		if j+seg == chunkRecs {
			c.close(c.data(), 0)
		}
		i += seg
	}
	s.n.Store(pos + uint64(len(recs)))
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// verified reports whether a chunk's or page's contents are safe to
// decode: open tails and already-verified ones pass immediately; the
// first reader of a sealed one pays one whole checksum; one that fails
// is marked corrupt exactly once, counted, and reported to the owning
// cache so the damaged stream leaves the pool.
func (s *Stream) verified(sl *seal, data []byte) bool {
	switch sl.state.Load() {
	case sealOpen, sealVerified:
		return true
	case sealCorrupt:
		return false
	}
	if crc32.Checksum(data, crcTable) == sl.sum {
		sl.state.CompareAndSwap(sealSealed, sealVerified)
		return true
	}
	if sl.state.CompareAndSwap(sealSealed, sealCorrupt) {
		telemetry.Degraded.ReplayCorruptChunks.Add(1)
		if s.owner != nil {
			s.owner.corrupted(s)
		}
	}
	return false
}

// newReplayer returns an independent reader positioned at the stream's
// start, counted among the stream's readers until its Release. For a
// stream a cache owns, the caller holds the cache's mutex, so no drop
// can reclaim the arenas between finding the stream and counting the
// reader. Replayers are not safe for concurrent use individually, but
// any number may read one stream concurrently.
func (s *Stream) newReplayer() *Replayer {
	s.readers++
	return &Replayer{s: s, base: s.key.Base}
}

// Replayer reads a recorded stream through the trace.Source contract.
// Reads below the recorded frontier decode straight out of the arenas —
// no locks, no allocation, no generator work; the reader at the
// frontier extends the recording with exactly the records its consumer
// asked for.
type Replayer struct {
	s    *Stream
	base uint64
	pos  uint64

	// at is the decoder state at pos, carried across sequential reads;
	// synced is false after a seek (Skip, Rewind), until the next decode
	// re-derives at from the seek index.
	at     seekPoint
	synced bool

	// chunks/pages/limit cache the stream view this replayer has
	// validated; refreshed only when pos reaches limit. Loading n before
	// the lists (in refresh) pairs with the publication order in record.
	chunks []*chunk
	pages  []*page
	limit  uint64

	// fb, once set, replaces the arenas entirely: a corrupt chunk or
	// page was detected, so the rest of this replayer's life is served
	// by a fresh generator fast-forwarded to the same position —
	// degraded (the generator costs ~26 ns/instr versus a few for arena
	// decode), counted in expvar, and never wrong.
	fb trace.Source
}

// failover abandons the corrupt arenas: a fresh generator re-derives the
// stream from its spec and is advanced to the replayer's position, so
// the consumer's record sequence is unbroken and exactly what a cache-
// free run would have read.
func (r *Replayer) failover() error {
	gen, err := trace.NewGenerator(r.s.spec, r.s.key.Seed, r.s.key.Base)
	if err != nil {
		return err
	}
	if err := discard(gen, r.pos); err != nil {
		return err
	}
	r.fb = gen
	telemetry.Degraded.ReplayFallbacks.Add(1)
	if r.s.owner != nil {
		r.s.owner.fellBack()
	}
	return nil
}

// refresh re-snapshots the published arena view, returning whether it
// now extends past the replayer's position.
func (r *Replayer) refresh() bool {
	r.limit = r.s.n.Load()
	r.chunks = *r.s.chunks.Load()
	r.pages = *r.s.pages.Load()
	return r.pos < r.limit
}

// page returns the verified value page holding slot cur — the shared
// empty page when no value has reached it yet — or nil if it is corrupt.
func (r *Replayer) page(cur uint64) *page {
	pi := cur >> pageShift
	if pi >= uint64(len(r.pages)) {
		return &emptyPage
	}
	p := r.pages[pi]
	if !r.s.verified(&p.seal, p.data()) {
		return nil
	}
	return p
}

// NextBatch implements trace.BatchReader. It always fills recs
// completely: recorded streams never end (the backing generator is
// infinite), matching the generator's own contract.
func (r *Replayer) NextBatch(recs []trace.Record) (int, error) {
	if r.fb != nil {
		return r.fb.NextBatch(recs)
	}
	out := recs
	for len(out) > 0 {
		if r.pos >= r.limit {
			if r.refresh() {
				continue
			}
			// At the frontier: generate the rest straight into out,
			// recording it as a side effect. A return of 0 means another
			// reader recorded past us first — loop and replay it.
			if n, at := r.s.record(r.pos, out); n > 0 {
				r.pos += uint64(n)
				r.at, r.synced = at, true
				out = out[n:]
			}
			continue
		}
		c := r.chunks[r.pos>>chunkShift]
		j := int(r.pos & chunkMask)
		seg := min(chunkRecs-j, len(out), int(r.limit-r.pos))
		n := 0
		if r.s.verified(&c.seal, c.data()) && (r.synced || r.seek(c)) {
			n = r.decode(c.flags[j:j+seg:j+seg], out[:seg:seg])
		}
		out = out[n:]
		if n < seg {
			// The arena rotted under us: finish the batch from a fresh
			// generator and serve every later read the same way.
			if err := r.failover(); err != nil {
				return len(recs) - len(out), err
			}
			if _, err := r.fb.NextBatch(out); err != nil {
				return len(recs) - len(out), err
			}
			return len(recs), nil
		}
	}
	return len(recs), nil
}

// decode decodes the records whose flags are fl into dst (equal
// lengths), advancing the replayer, and returns how many it decoded —
// fewer than len(fl) only if a value page failed verification.
func (r *Replayer) decode(fl []uint8, dst []trace.Record) int {
	for k := 0; k < len(fl); {
		p := r.page(r.at.cur)
		if p == nil {
			return k
		}
		// Records that cannot run off the page decode branch-free; the
		// few whose values may straddle into the next page go one by one.
		o := r.at.cur & pageMask
		fit := min(int((pageMask-o)/maxVals), len(fl)-k)
		if fit == 0 {
			if !r.step(fl[k], &dst[k]) {
				return k
			}
			r.pos++
			k++
			continue
		}
		o, r.at.pred = decodePage(fl[k:k+fit:k+fit], dst[k:k+fit:k+fit], &p.vals, o, r.at.pred, r.base)
		r.at.cur = r.at.cur&^pageMask | o
		r.pos += uint64(fit)
		k += fit
	}
	return len(fl)
}

// decodePage is the hot decode loop: len(fl) records whose values all
// lie in vals from slot o on, where o+maxVals*len(fl) < pageVals. Every
// field is read unconditionally from the slot its layout gives and
// masked, and the slot advances once per record — no branch depends on
// the data. It returns the slot and predicted PC after the records.
func decodePage(fl []uint8, dst []trace.Record, vals *[pageVals]uint32, o, pred, base uint64) (uint64, uint64) {
	dst = dst[:len(fl)]
	for k, f := range fl {
		l := &layouts[f]
		// The fit bound above keeps every slot read inside vals.
		at := unsafe.Add(unsafe.Pointer(vals), (o-1)*4)
		v := func(i int) uint64 { return uint64(*(*uint32)(unsafe.Add(at, uintptr(l.slot[i])*4))) }
		m := l.mask[0]
		pc := v(0)&m | pred&^m
		l0 := (base + v(1)) & l.mask[1]
		l1 := (base + v(2)) & l.mask[2]
		st := (base + v(3)) & l.mask[3]
		m = l.mask[4]
		tg := v(4) & m
		pred = tg | (pc+4)&^m
		o += uint64(l.slot[maxVals])
		d := &dst[k]
		d.PC, d.Load0, d.Load1, d.Store, d.Target = pc, l0, l1, st, tg
		*(*uint32)(unsafe.Pointer(&d.IsBranch)) = l.bools
	}
	return o, pred
}

// step decodes one record with flags f into rec, reading each value
// from whichever page holds it, and advances the decoder state past it
// (not pos); it reports false if a page failed verification.
func (r *Replayer) step(f uint8, rec *trace.Record) bool {
	var v [maxVals]uint64
	for i, bit := range fieldBits {
		if f&bit == 0 {
			continue
		}
		p := r.page(r.at.cur)
		if p == nil {
			return false
		}
		v[i] = uint64(p.vals[r.at.cur&pageMask])
		if r.at.cur++; r.at.cur&pageMask == 0 {
			r.at.cur++
		}
	}
	l := &layouts[f]
	pc := v[0]&l.mask[0] | r.at.pred&^l.mask[0]
	*rec = trace.Record{
		PC:     pc,
		Load0:  (r.base + v[1]) & l.mask[1],
		Load1:  (r.base + v[2]) & l.mask[2],
		Store:  (r.base + v[3]) & l.mask[3],
		Target: v[4],
	}
	*(*uint32)(unsafe.Pointer(&rec.IsBranch)) = l.bools
	r.at.pred = v[4] | (pc+4)&^l.mask[4]
	return true
}

// seek re-derives the decoder state at pos, inside the verified chunk
// c: the block's seek-index entry, then a walk over the block's records
// before pos. It reports false if a value page failed verification.
func (r *Replayer) seek(c *chunk) bool {
	j := int(r.pos & chunkMask)
	start := j &^ blockMask
	r.at = c.index[start>>blockShift]
	var scratch trace.Record
	for _, f := range c.flags[start:j] {
		if !r.step(f, &scratch) {
			return false
		}
	}
	r.synced = true
	return true
}

// Skip implements trace.Skipper: it discards the next n records,
// advancing the cursor in O(1) across the recorded region. Skipped
// records are never decoded; the next read re-derives its decoder state
// from the seek index of the chunk it lands in, after verifying that
// chunk. At the frontier, Skip records forward through a scratch buffer
// so the arenas stay dense for every later reader; a failed-over
// replayer discards through its generator.
func (r *Replayer) Skip(n uint64) (uint64, error) {
	total := n
	if r.fb != nil {
		return total, discard(r.fb, n)
	}
	var buf [512]trace.Record
	for n > 0 {
		if r.pos >= r.limit {
			if r.refresh() {
				continue
			}
			want := min(uint64(len(buf)), n)
			// A return of 0 means another reader recorded past us
			// first; the refresh above will pick its records up.
			if got, at := r.s.record(r.pos, buf[:want]); got > 0 {
				r.pos += uint64(got)
				r.at, r.synced = at, true
				n -= uint64(got)
			}
			continue
		}
		step := min(r.limit-r.pos, n)
		r.pos += step
		r.synced = false
		n -= step
	}
	return total, nil
}

// Release ends the replayer's reads; it is unusable after (a read
// panics). When the stream's cache has dropped the stream and this was
// its last replayer, the cache recycles the stream's arenas. A replayer
// never released keeps its stream's arenas to itself until the garbage
// collector takes both. Idempotent.
func (r *Replayer) Release() {
	s := r.s
	if s == nil {
		return
	}
	*r = Replayer{}
	if s.owner != nil {
		s.owner.unread(s)
	}
}

// discard reads and drops n records from src.
func discard(src trace.Source, n uint64) error {
	var buf [512]trace.Record
	for n > 0 {
		want := min(uint64(len(buf)), n)
		got, err := src.NextBatch(buf[:want])
		if err != nil {
			return err
		}
		n -= uint64(got)
	}
	return nil
}

// Next implements trace.Reader.
func (r *Replayer) Next(rec *trace.Record) error {
	_, err := r.NextBatch(unsafe.Slice(rec, 1))
	return err
}

// Rewind implements trace.Rewinder: the stream restarts from its first
// record, exactly as a fresh generator would. A failed-over replayer
// stays on its generator — the arenas it left were corrupt.
func (r *Replayer) Rewind() {
	if r.fb != nil {
		r.fb.Rewind()
		return
	}
	r.pos = 0
	r.synced = false
	r.limit = 0
	r.chunks = nil
	r.pages = nil
}
