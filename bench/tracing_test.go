package main

import (
	"context"
	"io"
	"reflect"
	"testing"

	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTimedProviderIsTransparent runs each workload's kind of campaign
// at tiny size with and without the timing wrapper on Streams: results
// must be byte-identical and the fan-out and sampling counters must
// move identically. The fan-out campaign covers the shared-decode path
// and the sampled campaign the Skip path.
func TestTimedProviderIsTransparent(t *testing.T) {
	z := tinySizes()
	for _, c := range []struct {
		name           string
		cfgs           []sim.Config
		replay         bool
		fanout, sample bool
	}{
		{"full", sweepConfigs(z, 3), false, false, false},
		{"fan", sweepConfigs(z, 3), true, true, false},
		{"sampled", sampledConfigs(z, 3), true, false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(wrap bool) (string, delta, *readTimer) {
				var streams trace.SourceProvider
				if c.replay {
					streams = replay.NewCache(replayBudget)
				}
				var rt *readTimer
				if wrap {
					rt = &readTimer{}
					under := streams
					if under == nil {
						under = trace.Generate{}
					}
					streams = timedProvider{under: under, t: rt}
				}
				before := takeSnapshot()
				out, err := runner.New(runner.Options{Workers: procs, Streams: streams, Fanout: c.fanout, Sample: c.sample}).
					RunAll(context.Background(), c.cfgs)
				if err == nil {
					err = out.Err()
				}
				if err != nil {
					t.Fatal(err)
				}
				d, err := digestResults(out.Results)
				if err != nil {
					t.Fatal(err)
				}
				return d, before.to(takeSnapshot()), rt
			}
			plainDigest, plain, _ := run(false)
			timedDigest, timed, rt := run(true)
			if plainDigest != timedDigest {
				t.Error("results differ with the timing wrapper")
			}
			if got, want := counts(timed), counts(plain); got != want {
				t.Errorf("counters with the wrapper %+v, without %+v", got, want)
			}
			if rt.recs.Load() == 0 {
				t.Error("the wrapper timed no reads")
			}
			if c.sample && plain.sampledRuns == 0 {
				t.Error("the sampled campaign sampled nothing")
			}
			if c.fanout && plain.fanGroups == 0 {
				t.Error("the fan-out campaign formed no group")
			}
		})
	}
}

// counts is the part of a delta the wrapper must not move.
type counters struct {
	fanGroups, fanPoints, fanDecodes, fanFallbacks int64
	profileRuns, sampledRuns, sampledFallbacks     int64
	instrsSimulated, instrsSkipped                 int64
}

func counts(d delta) counters {
	return counters{d.fanGroups, d.fanPoints, d.fanDecodes, d.fanFallbacks,
		d.profileRuns, d.sampledRuns, d.sampledFallbacks, d.instrsSimulated, d.instrsSkipped}
}

// TestWrapSourceForwardsInterfaces checks that a wrapped source offers
// SliceReader and Skipper exactly when the source it wraps does, and
// that reads through either return the wrapped source's records.
func TestWrapSourceForwardsInterfaces(t *testing.T) {
	spec, err := trace.SpecFor("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	reference := readAll(t, mustGen(t, spec), n)

	// A fan reader hands out zero-copy slices but cannot skip.
	fan := replay.NewFan(mustGen(t, spec), 1, 256, nil)
	rt := &readTimer{}
	w := wrapSource(fan.Reader(0), rt)
	sl, ok := w.(trace.SliceReader)
	if !ok {
		t.Fatal("wrapped fan reader lost SliceReader")
	}
	if _, ok := w.(trace.Skipper); ok {
		t.Error("wrapped fan reader gained Skipper")
	}
	var got []trace.Record
	for len(got) < n {
		view, err := sl.NextSlice()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, view...)
	}
	if !reflect.DeepEqual(got[:n], reference) {
		t.Error("records read through the wrapped slice reader differ")
	}
	if rt.recs.Load() != int64(len(got)) {
		t.Errorf("timer counted %d records, read %d", rt.recs.Load(), len(got))
	}

	// A replayer skips.
	cache := replay.NewCache(replayBudget)
	src, err := cache.Source(spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = wrapSource(src, &readTimer{})
	sk, ok := w.(trace.Skipper)
	if !ok {
		t.Fatal("wrapped replayer lost Skipper")
	}
	if _, ok := w.(trace.SliceReader); ok {
		t.Error("wrapped replayer gained SliceReader")
	}
	if k, err := sk.Skip(1000); err != nil || k != 1000 {
		t.Fatalf("Skip(1000) = %d, %v", k, err)
	}
	if !reflect.DeepEqual(readAll(t, w, n-1000), reference[1000:]) {
		t.Error("records after a skip through the wrapper differ")
	}

	// A generator does neither.
	w = wrapSource(mustGen(t, spec), &readTimer{})
	if _, ok := w.(trace.SliceReader); ok {
		t.Error("wrapped generator gained SliceReader")
	}
	if _, ok := w.(trace.Skipper); ok {
		t.Error("wrapped generator gained Skipper")
	}
	if !reflect.DeepEqual(readAll(t, w, n), reference) {
		t.Error("records read through the wrapped generator differ")
	}
}

func mustGen(t *testing.T, spec trace.Spec) trace.Source {
	t.Helper()
	g, err := trace.Generate{}.Source(spec, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func readAll(t *testing.T, src trace.Source, n int) []trace.Record {
	t.Helper()
	out := make([]trace.Record, 0, n)
	buf := make([]trace.Record, 256)
	for len(out) < n {
		k, err := src.NextBatch(buf[:min(len(buf), n-len(out))])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf[:k]...)
	}
	return out
}

func TestTracerSelfTimes(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 0, Name: "outer", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "inner", Parent: 0, Start: 10, End: 40},
		{ID: 2, Name: "inner", Parent: 0, Start: 30, End: 60},
		{ID: 3, Name: "event", Parent: 0, Start: 70, End: 70},
	}
	st := tr.selfTimes()
	if got := st["outer"]; got != [2]float64{100e-9, 50e-9} {
		t.Errorf("outer total/self = %v, want 100ns/50ns", got)
	}
	if got := st["inner"]; got != [2]float64{60e-9, 60e-9} {
		t.Errorf("inner total/self = %v, want 60ns/60ns", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", "", -1))
	nilTracer.event("y", "", -1)
}
