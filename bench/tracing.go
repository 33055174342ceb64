package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// span is one recorded interval at a layer boundary the benchmark calls
// across. Spans of one campaign share its ID (the campaign id, or the
// config key for a single run); Parent is the index of the span that
// caused this one, or -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced configuration: every method is a no-op returning -1.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name, key string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Key: key, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// event records an instant: a span whose start and end coincide.
func (t *tracer) event(name, key string, parent int) {
	t.end(t.begin(name, key, parent))
}

// selfTimes sums, per span name, the total duration and the self time:
// the duration minus the part of it that child spans cover.
func (t *tracer) selfTimes() map[string][2]float64 {
	out := make(map[string][2]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		total := s.End - s.Start
		covered := covered(children[s.ID], s.Start, s.End)
		v := out[s.Name]
		v[0] += float64(total) / 1e9
		v[1] += float64(total-covered) / 1e9
		out[s.Name] = v
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var n, cur int64 = 0, lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			n += e - s
			cur = e
		}
	}
	return n
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTimer accumulates time spent in, and records returned by, the
// primary-core reads of every source a timedProvider hands out.
type readTimer struct {
	ns, recs atomic.Int64
}

func (r *readTimer) seconds() float64 { return float64(r.ns.Load()) / 1e9 }

// nsPerRecord is the mean read cost of one record; 0 before any read.
func (r *readTimer) nsPerRecord() float64 {
	return ratio(float64(r.ns.Load()), float64(r.recs.Load()))
}

// timedProvider is a transparent trace.SourceProvider: it hands out the
// wrapped provider's sources, timing each batch read. The simulator only
// asks the Streams provider for primary-core streams, so the timer sees
// exactly the primary core's reads. The sources it returns implement
// trace.SliceReader and trace.Skipper exactly when the wrapped sources
// do, so the zero-copy fan path and the sampled seek path behave as
// they would unwrapped.
type timedProvider struct {
	under trace.SourceProvider
	t     *readTimer
}

func (p timedProvider) Source(spec trace.Spec, seed, base uint64) (trace.Source, error) {
	src, err := p.under.Source(spec, seed, base)
	if err != nil {
		return nil, err
	}
	return wrapSource(src, p.t), nil
}

func wrapSource(src trace.Source, t *readTimer) trace.Source {
	ts := &timedSource{src: src, t: t}
	sl, slicer := src.(trace.SliceReader)
	sk, skipper := src.(trace.Skipper)
	switch {
	case slicer && skipper:
		return &timedSliceSkipper{timedSource: ts, sl: sl, sk: sk}
	case slicer:
		return &timedSlicer{timedSource: ts, sl: sl}
	case skipper:
		return &timedSkipper{timedSource: ts, sk: sk}
	}
	return ts
}

type timedSource struct {
	src trace.Source
	t   *readTimer
}

func (s *timedSource) NextBatch(recs []trace.Record) (int, error) {
	t0 := time.Now()
	n, err := s.src.NextBatch(recs)
	s.t.ns.Add(int64(time.Since(t0)))
	s.t.recs.Add(int64(n))
	return n, err
}

func (s *timedSource) Next(rec *trace.Record) error {
	t0 := time.Now()
	err := s.src.Next(rec)
	s.t.ns.Add(int64(time.Since(t0)))
	if err == nil {
		s.t.recs.Add(1)
	}
	return err
}

func (s *timedSource) Rewind() { s.src.Rewind() }

func (s *timedSource) nextSlice(sl trace.SliceReader) ([]trace.Record, error) {
	t0 := time.Now()
	view, err := sl.NextSlice()
	s.t.ns.Add(int64(time.Since(t0)))
	s.t.recs.Add(int64(len(view)))
	return view, err
}

type timedSlicer struct {
	*timedSource
	sl trace.SliceReader
}

func (s *timedSlicer) NextSlice() ([]trace.Record, error) { return s.nextSlice(s.sl) }

type timedSkipper struct {
	*timedSource
	sk trace.Skipper
}

func (s *timedSkipper) Skip(n uint64) (uint64, error) { return s.sk.Skip(n) }

type timedSliceSkipper struct {
	*timedSource
	sl trace.SliceReader
	sk trace.Skipper
}

func (s *timedSliceSkipper) NextSlice() ([]trace.Record, error) { return s.nextSlice(s.sl) }
func (s *timedSliceSkipper) Skip(n uint64) (uint64, error)      { return s.sk.Skip(n) }
