package sim

import (
	"repro/internal/fault"
	"repro/internal/trace"
)

// faultSource interposes the trace.read injection site on a core's
// instruction stream. It exists only in chaos mode — primarySource
// wraps the primary stream with it solely when injection is enabled — so
// production keeps the devirtualised hot call edge and the 0-alloc
// read path untouched.
type faultSource struct {
	src trace.Source
}

func (f *faultSource) Next(rec *trace.Record) error {
	if err := fault.Err(fault.SiteTraceRead); err != nil {
		return err
	}
	return f.src.Next(rec)
}

func (f *faultSource) NextBatch(recs []trace.Record) (int, error) {
	if err := fault.Err(fault.SiteTraceRead); err != nil {
		// BatchReader's contract: an error returns with n == 0.
		return 0, err
	}
	return f.src.NextBatch(recs)
}

func (f *faultSource) Rewind() { f.src.Rewind() }

// Release forwards to the wrapped source, so a chaos run still hands its
// replay stream back.
func (f *faultSource) Release() { release(f.src) }
