package telemetry

import (
	"expvar"
	"sync/atomic"
)

// StoreCounters is the process-wide tally of the cross-campaign result
// store (internal/store) plus the expt memo that sits above it, served
// as expvar "pinte.store" so one dashboard covers both caching layers:
// the in-process memo and the durable content-addressed store beneath
// it.
type StoreCounters struct {
	// Hits counts lookups served from the store; Misses counts lookups
	// that found nothing under the current simulator fingerprint.
	Hits   atomic.Int64
	Misses atomic.Int64
	// Puts counts results durably appended; PutErrors counts appends
	// that failed (the run still succeeded and keeps its result — the
	// campaign reports a record-only failure, never a failed run).
	Puts      atomic.Int64
	PutErrors atomic.Int64
	// ReadErrors counts hit read-backs that failed (I/O error or a
	// checksum mismatch); the entry is dropped from the index and the
	// lookup degrades to a miss.
	ReadErrors atomic.Int64
	// CorruptRecords counts mid-segment records dropped during an open
	// scan (bad JSON or a failed CRC): the scan continues and every
	// intact record after them still loads.
	CorruptRecords atomic.Int64
	// TornTails counts benign final-record truncations (a crash or a
	// failed append mid-record) trimmed away on open.
	TornTails atomic.Int64
	// StaleSkipped counts records seen at open whose simulator
	// fingerprint differs from the current build: kept on disk for
	// comparison, never indexed, never served.
	StaleSkipped atomic.Int64
	// Evictions / EvictedBytes tally byte-budget segment GC.
	Evictions    atomic.Int64
	EvictedBytes atomic.Int64
	// OpenErrors counts store opens that failed.
	OpenErrors atomic.Int64
	// SingleFlightShared counts runs that blocked on another campaign's
	// in-flight computation of the same config and shared its result;
	// SingleFlightRetries counts waiters woken into their own attempt
	// by a failed or panicked leader.
	SingleFlightShared  atomic.Int64
	SingleFlightRetries atomic.Int64
	// MemoHits / MemoMisses are the expt in-process memo layer, folded
	// in here so the warm layer and the durable layer share a
	// dashboard.
	MemoHits   atomic.Int64
	MemoMisses atomic.Int64
}

// StoreC is the process-wide instance the store and the expt memo
// report into.
var StoreC StoreCounters

// storeGauges, when published, supplies the live size gauges (bytes,
// segments, entries) of the most recently opened store — the same
// last-one-wins pattern as the replay-cache view.
var storeGauges atomic.Pointer[func() map[string]int64]

// PublishStoreGauges exposes fn's gauges alongside the counters on the
// "pinte.store" expvar. The function must be safe to call from any
// goroutine at any time.
func PublishStoreGauges(fn func() map[string]int64) { storeGauges.Store(&fn) }

// StoreSnapshot is one consistent-enough read of the counters plus the
// published store gauges.
func StoreSnapshot() map[string]int64 {
	out := map[string]int64{
		"hits":                 StoreC.Hits.Load(),
		"misses":               StoreC.Misses.Load(),
		"puts":                 StoreC.Puts.Load(),
		"put_errors":           StoreC.PutErrors.Load(),
		"read_errors":          StoreC.ReadErrors.Load(),
		"corrupt_records":      StoreC.CorruptRecords.Load(),
		"torn_tails":           StoreC.TornTails.Load(),
		"stale_skipped":        StoreC.StaleSkipped.Load(),
		"evictions":            StoreC.Evictions.Load(),
		"evicted_bytes":        StoreC.EvictedBytes.Load(),
		"open_errors":          StoreC.OpenErrors.Load(),
		"singleflight_shared":  StoreC.SingleFlightShared.Load(),
		"singleflight_retries": StoreC.SingleFlightRetries.Load(),
		"memo_hits":            StoreC.MemoHits.Load(),
		"memo_misses":          StoreC.MemoMisses.Load(),
	}
	if fn := storeGauges.Load(); fn != nil {
		for k, v := range (*fn)() {
			out[k] = v
		}
	}
	return out
}

func init() {
	expvar.Publish("pinte.store", expvar.Func(func() any {
		return StoreSnapshot()
	}))
}
