package runner

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Stream release: a profile group's profile and members all read one
// recorded stream (profileConfig keeps the workload and seed), and the
// campaign's stream cache would otherwise keep every such stream until
// the campaign ends. When Options.Streams can release streams
// (streamReleaser — the replay cache can), the campaign counts, for
// each profile group's primary stream, the readers it has still to
// finish: every profile on the stream plus every config of the
// campaign that may still read it (members with their full-ROI
// fallbacks, full points, fan groups and flight watchers on the same
// stream). The last reader to finish releases it. A replayer still in
// flight keeps its stream and reads to its end, and a later Source
// call records the stream again, byte for byte. Streams outside the
// profile groups, retries' perturbed-seed streams and configs carrying
// their own provider are never released, and a provider without
// Release is untouched.

// streamReleaser is the optional trace.SourceProvider extension the
// campaign releases streams through: Release drops the provider's copy
// of the stream its Source call for (spec, seed, base) returns. Sources
// already handed out must stay valid, and a later Source call must
// return the stream again from its beginning.
type streamReleaser interface {
	Release(spec trace.Spec, seed, base uint64)
}

// streamRefs is a campaign's count of unfinished readers per released
// stream.
type streamRefs struct {
	rel streamReleaser
	// of maps a config to its stream's index in ids; -1 when its stream
	// is not tracked.
	of   []int32
	ids  []streamID
	left []atomic.Int32
}

// streamID is what streamReleaser.Release is called with.
type streamID struct {
	spec       trace.Spec
	seed, base uint64
}

// trackStreams counts the readers of every profile group's stream and
// orders pg so groups that share a stream run next to each other. It
// does nothing when the provider cannot release streams.
func (c *campaign) trackStreams(e []entry, pg [][]int) {
	rel, ok := c.o.opts.Streams.(streamReleaser)
	if !ok || len(pg) == 0 {
		return
	}
	type key struct {
		fp         string
		seed, base uint64
	}
	type workload struct {
		name string
		spec *trace.Spec
	}
	// The spec fingerprint is a JSON marshal: take it once per distinct
	// workload, not once per config.
	fps := make(map[workload]string)
	index := make(map[key]int32)
	r := &streamRefs{rel: rel, of: make([]int32, len(e))}
	// streamOf returns config i's stream index, adding the stream when
	// add is set; -1 for an untracked stream.
	streamOf := func(i int, add bool) int32 {
		cfg := c.cfgs[i]
		if cfg.Streams != nil {
			return -1
		}
		spec, seed, base, err := sim.PrimaryStream(cfg)
		if err != nil {
			return -1
		}
		w := workload{cfg.Workload, cfg.WorkloadSpec}
		fp, ok := fps[w]
		if !ok {
			fp = spec.Fingerprint()
			fps[w] = fp
		}
		k := key{fp, seed, base}
		s, ok := index[k]
		if !ok {
			if !add {
				return -1
			}
			s = int32(len(r.ids))
			index[k] = s
			r.ids = append(r.ids, streamID{spec, seed, base})
		}
		return s
	}
	for _, g := range pg {
		streamOf(g[0], true)
	}
	r.left = make([]atomic.Int32, len(r.ids))
	for i, en := range e {
		r.of[i] = -1
		switch en.exec {
		case execFull, execSampled, execFan, execFlight:
			if s := streamOf(i, false); s >= 0 {
				r.of[i] = s
				r.left[s].Add(1)
			}
		}
	}
	for _, g := range pg {
		if s := r.of[g[0]]; s >= 0 {
			r.left[s].Add(1) // the profile
		}
	}
	slices.SortStableFunc(pg, func(a, b []int) int { return cmp.Compare(r.of[a[0]], r.of[b[0]]) })
	c.streams = r
}

// read retires one reader of stream s and releases the stream when it
// was the last.
func (r *streamRefs) read(s int32) {
	if s >= 0 && r.left[s].Add(-1) == 0 {
		id := &r.ids[s]
		r.rel.Release(id.spec, id.seed, id.base)
	}
}

// doneReading retires one reader of config i's stream, releasing the
// stream when it was the last: config i itself once its outcome is
// recorded, or the profile of the group whose first member is i.
func (c *campaign) doneReading(i int) {
	if r := c.streams; r != nil {
		r.read(r.of[i])
	}
}
