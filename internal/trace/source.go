package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// Source is the instruction-stream contract a simulated core consumes:
// batched reads plus the ability to restart the stream from the
// beginning (the multi-programmed driver rewinds finished co-runners).
// Two Sources for the same (spec, seed, base) must yield identical
// record sequences, whether the records are generated live or replayed
// from a recording.
//
// A Source may also have a Release() method. The simulator calls it
// exactly once, when the run that read the source has ended however it
// ended, and reads no more after it: a replay cache's replayer then
// lets the cache recycle its stream's memory. A wrapper around such a
// Source should forward Release; one that does not leaves the stream
// to the garbage collector.
type Source interface {
	BatchReader
	Rewinder
}

// SliceReader is the zero-copy variant of BatchReader: NextSlice
// returns a read-only view of the source's next decoded batch instead
// of copying records into a caller buffer. The returned slice is valid
// until the next NextSlice call on the same reader; callers must not
// mutate it (fan-out readers share one decode across many consumers).
// A return of (nil, io.EOF) ends the stream; an empty slice with a
// non-EOF error reports a read failure, exactly as BatchReader does.
type SliceReader interface {
	NextSlice() ([]Record, error)
}

// Skipper is an optional Source extension: Skip discards the next n
// records more cheaply than reading them — a replayer advances its
// cursor in O(1) within the recorded region. It returns the count
// actually skipped (always n for infinite synthetic streams). Phase-
// sampled simulation probes for it to seek to interval boundaries;
// sources without it are skipped by reading and discarding.
type Skipper interface {
	Skip(n uint64) (uint64, error)
}

// SourceProvider resolves the instruction stream for one core of a
// simulation. The synthetic generator is the default provider; a
// record/replay cache (internal/replay) substitutes recorded streams so
// a sweep generates each workload stream once and replays it read-only
// across every sweep point. Implementations must be safe for concurrent
// use by parallel simulation workers, and every returned Source must
// read the stream from its beginning.
type SourceProvider interface {
	Source(spec Spec, seed, base uint64) (Source, error)
}

// Generate is the pass-through SourceProvider: it builds a fresh
// Generator per call, exactly what a simulation does when no replay
// cache is attached.
type Generate struct{}

// Source implements SourceProvider.
func (Generate) Source(spec Spec, seed, base uint64) (Source, error) {
	return NewGenerator(spec, seed, base)
}

// Fingerprint returns a stable content hash of the spec: the SHA-256 of
// its canonical JSON encoding. Two specs with equal contents fingerprint
// identically regardless of where they are allocated, so the hash is
// safe to use in memo and stream-cache keys where a pointer identity
// would collide across allocations reusing the same address.
func (s *Spec) Fingerprint() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data (numbers, strings, slices); Marshal cannot
		// fail on it short of memory corruption.
		panic("trace: marshal spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
