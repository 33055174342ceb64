package replay

import (
	"errors"
	"io"
	"sync"

	"repro/internal/trace"
)

// ErrDetached is returned by a FanReader whose view was detached from
// its Fan — either by its own consumer finishing or by an orchestrator
// abandoning a wedged consumer. A detached reader never blocks the
// group's barrier again.
var ErrDetached = errors.New("replay: fan reader detached")

// Fan is the shared-batch mode of a stream: one underlying Source is
// decoded exactly once per batch, and every attached FanReader observes
// the identical decoded records through a read-only view. Readers
// advance together — a batch is decoded only when every attached
// reader has consumed the previous one — so the Fan doubles as a
// per-batch barrier.
//
// No executor uses it: the fan-out digest executor (internal/sim) once
// did, but its followers no longer read records, and its front reads
// the stream alone. Deleting Fan waits for the bench/ catch-up (ROADMAP
// item 5), because bench/tracing_test.go still calls NewFan.
//
// The decode buffer is owned by the Fan. A published batch stays valid
// until every attached reader has asked for the next one, which is what
// makes the zero-copy views sound. When a reader detaches mid-stream
// (consumer finished, failed, or was abandoned by a watchdog), the next
// decode switches to a fresh buffer: even a leaked goroutine still
// holding the old view can only read stale — never torn — records.
type Fan struct {
	src   trace.Source
	fresh func() (trace.Source, error) // private-source factory for Rewind; may be nil
	batch int

	mu      sync.Mutex
	buf     []trace.Record
	n       int           // records in buf
	gen     uint64        // batches decoded so far; buf holds batch gen while gen > 0
	err     error         // terminal: io.EOF, a read error, or an Abort
	active  int           // attached readers
	ready   chan struct{} // closed (and replaced) when a batch publishes or the fan aborts
	swapped bool          // a reader detached: the next decode must not reuse buf

	readers []*FanReader
}

// NewFan builds a fan over src with n attached readers, decoding
// batchSize records per generation (0 selects the stream's flag-chunk
// size, 64Ki records, so each chunk is decoded exactly once). fresh,
// when non-nil, builds a private replacement source for a reader that
// Rewinds — without it a rewound reader fails its subsequent reads.
func NewFan(src trace.Source, n int, batchSize int, fresh func() (trace.Source, error)) *Fan {
	if batchSize <= 0 {
		batchSize = chunkRecs
	}
	f := &Fan{
		src:   src,
		fresh: fresh,
		batch: batchSize,
		ready: make(chan struct{}),
	}
	f.active = n
	for i := 0; i < n; i++ {
		f.readers = append(f.readers, &FanReader{f: f})
	}
	return f
}

// Reader returns the i'th attached reader.
func (f *Fan) Reader(i int) *FanReader { return f.readers[i] }

// Generations reports how many batches have been decoded — the fan's
// decode-pass count, independent of how many readers consumed each.
func (f *Fan) Generations() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// Abort terminates the fan: every parked or future read returns err
// (ErrDetached when err is nil). Used by group watchdogs to unwedge
// readers blocked on a sibling that will never arrive at the barrier.
func (f *Fan) Abort(err error) {
	if err == nil {
		err = ErrDetached
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	close(f.ready)
	f.ready = make(chan struct{})
	f.mu.Unlock()
}

// barrierReadyLocked reports whether every attached reader has consumed
// the current batch and parked for the next one — the only state in
// which decoding the next batch cannot invalidate a live view. A raw
// parked count is not enough: after an advance, a reader that parked for
// the previous generation may still be parked (woken but not yet
// scheduled) while the published batch sits unconsumed; counting it
// would let a fast sibling drive the decode straight past it. Callers
// hold f.mu; r.gen and r.parked are only mutated under it.
func (f *Fan) barrierReadyLocked() bool {
	ready := 0
	for _, r := range f.readers {
		if !r.detached && r.parked && r.gen == f.gen {
			ready++
		}
	}
	return ready >= f.active
}

// advanceLocked decodes the next batch (unless the fan is terminal) and
// wakes every parked reader. Callers hold f.mu. Parked flags are not
// reset here: each woken reader retracts its own on re-entry.
func (f *Fan) advanceLocked() {
	if f.err == nil {
		if f.swapped || f.buf == nil {
			// A detached (possibly abandoned) reader may still hold a view
			// of the old buffer; decode into a fresh one so its stale reads
			// can never observe a torn record.
			f.buf = make([]trace.Record, f.batch)
			f.swapped = false
		}
		n, err := f.src.NextBatch(f.buf)
		f.n = n
		if n == 0 {
			if err == nil {
				err = io.EOF
			}
			f.err = err
		} else {
			// Publish the records; a partial-batch error surfaces on the
			// advance after every reader has consumed them.
			if err != nil {
				f.err = err
			}
			f.gen++
		}
	}
	close(f.ready)
	f.ready = make(chan struct{})
}

// FanReader is one attached read-only view of a Fan. It implements
// trace.Source (copying reads) and trace.SliceReader (zero-copy views
// of the shared decode). Safe for use by one consumer goroutine;
// Detach may additionally be called from an orchestrator goroutine.
type FanReader struct {
	f   *Fan
	gen uint64 // batches fully consumed

	// view[pos:] is the unconsumed tail of the current batch for the
	// copying reads (NextBatch / Next).
	view []trace.Record
	pos  int

	// priv replaces the fan after Rewind: a private source serving this
	// reader alone, from the beginning of the stream.
	priv    trace.Source
	privBuf []trace.Record
	privErr error

	// Guarded by f.mu:
	parked   bool
	dead     bool
	detached bool
}

// NextSlice implements trace.SliceReader: it returns the next decoded
// batch as a read-only view, blocking until every attached sibling has
// consumed the previous one (the fan-out barrier).
func (r *FanReader) NextSlice() ([]trace.Record, error) {
	if r.priv != nil || r.privErr != nil {
		return r.privSlice()
	}
	f := r.f
	f.mu.Lock()
	for {
		r.parked = false
		if r.dead {
			f.mu.Unlock()
			return nil, ErrDetached
		}
		if f.gen > r.gen {
			// The published batch is the one this reader wants next: the
			// barrier guarantees no reader lags by more than one batch.
			view := f.buf[:f.n]
			r.gen++
			f.mu.Unlock()
			return view, nil
		}
		if f.err != nil {
			err := f.err
			f.mu.Unlock()
			return nil, err
		}
		// r.gen == f.gen here (a lagging reader took the view branch), so
		// parking always means "consumed the current batch, wants the
		// next" — the invariant barrierReadyLocked counts on.
		r.parked = true
		if f.barrierReadyLocked() {
			f.advanceLocked()
			continue
		}
		ready := f.ready
		f.mu.Unlock()
		<-ready
		f.mu.Lock()
	}
}

// NextBatch implements trace.BatchReader over the shared decode,
// copying records out so consumers with their own buffers (and batch
// sizes that straddle decode boundaries) work unchanged.
func (r *FanReader) NextBatch(recs []trace.Record) (int, error) {
	total := 0
	for total < len(recs) {
		if r.pos >= len(r.view) {
			view, err := r.NextSlice()
			if err != nil {
				if total > 0 {
					return total, nil // the sticky error resurfaces next call
				}
				return 0, err
			}
			r.view, r.pos = view, 0
		}
		n := copy(recs[total:], r.view[r.pos:])
		r.pos += n
		total += n
	}
	return total, nil
}

// Next implements trace.Reader.
func (r *FanReader) Next(rec *trace.Record) error {
	if r.pos < len(r.view) {
		*rec = r.view[r.pos]
		r.pos++
		return nil
	}
	var one [1]trace.Record
	if _, err := r.NextBatch(one[:]); err != nil {
		return err
	}
	*rec = one[0]
	return nil
}

// Rewind implements trace.Rewinder. A shared decode cannot rewind for
// one reader without rewinding all, so the reader detaches from the fan
// and continues alone on a private source built by the fan's fresh
// factory — reading from the beginning, exactly per the Source
// contract. Without a factory the reader fails its subsequent reads.
func (r *FanReader) Rewind() {
	if r.priv != nil {
		r.priv.Rewind()
		return
	}
	if r.privErr != nil {
		return
	}
	r.Detach()
	if r.f.fresh == nil {
		r.privErr = errors.New("replay: fan reader rewound without a private-source factory")
		return
	}
	src, err := r.f.fresh()
	if err != nil {
		r.privErr = err
		return
	}
	r.priv = src
	r.view, r.pos = nil, 0
}

// Detach removes the reader from the fan's barrier: siblings stop
// waiting for it and its own future reads fail with ErrDetached.
// Idempotent, and safe to call from a goroutine other than the
// consumer's — that is how a watchdog abandons a wedged point without
// wedging the group.
func (r *FanReader) Detach() {
	f := r.f
	f.mu.Lock()
	r.parked = false
	r.dead = true
	if !r.detached {
		r.detached = true
		f.active--
		f.swapped = true
		if f.active > 0 && f.barrierReadyLocked() {
			// This reader was the last hold-out; release the barrier.
			f.advanceLocked()
		}
	}
	f.mu.Unlock()
}

// privSlice serves NextSlice from the private post-Rewind source.
func (r *FanReader) privSlice() ([]trace.Record, error) {
	if r.privErr != nil {
		return nil, r.privErr
	}
	if r.privBuf == nil {
		r.privBuf = make([]trace.Record, r.f.batch)
	}
	n, err := r.priv.NextBatch(r.privBuf)
	if n == 0 {
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	return r.privBuf[:n], nil
}
