package runner

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Stream release: a campaign's stream cache would otherwise keep every
// stream it recorded until the campaign ends, though a P_Induce sweep
// is done with its workload's stream once its last point lands. When
// Options.Streams can release streams (streamReleaser — the replay
// cache can), the campaign counts, for each config's primary stream,
// the readers it has still to finish: every config that may still read
// it (full points with their retries, sampled members with their
// full-ROI fallbacks, fan groups' points with their per-run fallbacks,
// and flight watchers) plus every profile on it. The last reader to
// finish releases it, so the next fan group or profile group records
// over its recycled arenas. A replayer still in flight keeps its stream
// and reads to its end, and a later Source call records the stream
// again, byte for byte. Retries' perturbed-seed streams and configs
// carrying their own provider are never released, and a provider
// without Release is untouched.

// streamReleaser is the optional trace.SourceProvider extension the
// campaign releases streams through: Release drops the provider's copy
// of the stream its Source call for (spec, seed, base) returns. Sources
// already handed out must stay valid, and a later Source call must
// return the stream again from its beginning.
type streamReleaser interface {
	Release(spec trace.Spec, seed, base uint64)
}

// streamRefs names a campaign's primary streams and counts their
// unfinished readers. newPoints names them: ids lists each distinct
// stream once, and a record's stream field indexes it. trackStreams
// counts their readers in left.
type streamRefs struct {
	rel   streamReleaser
	ids   []streamID
	left  []atomic.Int32
	index map[streamKey]int32
	// fps holds each ad-hoc spec's fingerprint, a JSON marshal taken
	// once per spec rather than once per config.
	fps map[*trace.Spec]string
}

// streamID is what streamReleaser.Release is called with.
type streamID struct {
	spec       trace.Spec
	seed, base uint64
}

// streamKey is a primary stream as sim.PrimaryStream returns it, with
// the spec named by its preset's name or, for an ad-hoc spec, by its
// fingerprint. An ad-hoc spec equal to a preset therefore counts as a
// stream of its own; that costs at most one re-recording, when one of
// the two is released before the other's last reader.
type streamKey struct {
	workload   string
	seed, base uint64
}

// add returns the index of cfg's primary stream in ids, adding the
// stream when it is new; -1 when the stream cannot be named (an
// unknown workload).
func (r *streamRefs) add(cfg sim.Config) int32 {
	spec, seed, base, err := sim.PrimaryStream(cfg)
	if err != nil {
		return -1
	}
	k := streamKey{cfg.Workload, seed, base}
	if ws := cfg.WorkloadSpec; ws != nil {
		fp, ok := r.fps[ws]
		if !ok {
			// A copy, so only a new spec moves to the heap for the
			// marshal.
			sp := spec
			fp = sp.Fingerprint()
			r.fps[ws] = fp
		}
		k.workload = fp
	}
	s, ok := r.index[k]
	if !ok {
		s = int32(len(r.ids))
		r.index[k] = s
		r.ids = append(r.ids, streamID{spec, seed, base})
	}
	return s
}

// trackStreams counts the readers of every stream newPoints named in
// r and orders pg so profile groups that share a stream run next to
// each other. Only then does it publish r as c.streams: a store hit,
// finished earlier, reads no stream and is not counted. It does nothing
// when no stream was named.
func (c *campaign) trackStreams(pg [][]int, r *streamRefs) {
	if r == nil {
		return
	}
	r.left = make([]atomic.Int32, len(r.ids))
	for i := range c.pts {
		if p := &c.pts[i]; p.stream >= 0 && p.exec != execStore {
			r.left[p.stream].Add(1)
		}
	}
	for _, g := range pg {
		if s := c.pts[g[0]].stream; s >= 0 {
			r.left[s].Add(1) // the profile
		}
	}
	slices.SortStableFunc(pg, func(a, b []int) int { return cmp.Compare(c.pts[a[0]].stream, c.pts[b[0]].stream) })
	c.streams = r
}

// doneReading retires one reader of config i's stream, releasing the
// stream when it was the last: config i itself once its outcome is
// recorded, or the profile of the group whose first member is i.
func (c *campaign) doneReading(i int) {
	r := c.streams
	if r == nil {
		return
	}
	if s := c.pts[i].stream; s >= 0 && r.left[s].Add(-1) == 0 {
		id := &r.ids[s]
		r.rel.Release(id.spec, id.seed, id.base)
	}
}
