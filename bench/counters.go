package main

// This file is the benchmark's only reader of counters the simulator
// keeps for itself: the telemetry snapshots (expvar groups), the replay
// cache, the result store and the runner's Outcome, plus the Go runtime
// and the process's own resource usage. Every other file works on the
// snapshot and delta types below, so a rename of a telemetry counter or
// of the expvar tree changes this file only.

import (
	"math"
	"os"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// snapshot is one read of every process-global counter the benchmark
// uses. Process-global counters only mean something as deltas between
// two snapshots taken around one rep.
type snapshot struct {
	at time.Time
	// cpu is the process's user+system time.
	cpu time.Duration

	fanGroups, fanPoints, fanDecodes, fanFallbacks int64

	profileRuns, sampledRuns, sampledFallbacks int64
	instrsSimulated, instrsSkipped             int64

	storeHits, storeMisses, storePuts int64

	refused, degradedAdmissions int64

	heapAllocBytes uint64
	gcCPU          float64
	gcCycles       uint64
	sched          []uint64 // /sched/latencies bucket counts
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/latencies:seconds"},
}

// schedBuckets holds the bucket boundaries of /sched/latencies:seconds,
// fixed for the life of the process.
var schedBuckets []float64

func takeSnapshot() snapshot {
	fan := telemetry.FanoutSnapshot()
	ph := telemetry.PhaseSnapshot()
	st := telemetry.StoreSnapshot()
	sv := telemetry.ServerSnapshot()
	s := snapshot{
		at:  time.Now(),
		cpu: processCPU(),

		fanGroups:    fan["groups_formed"],
		fanPoints:    fan["points_fanned"],
		fanDecodes:   fan["decode_passes"],
		fanFallbacks: fan["fallback_points"],

		profileRuns:      ph["profile_runs"],
		sampledRuns:      ph["sampled_runs"],
		sampledFallbacks: ph["sampled_fallbacks"],
		instrsSimulated:  ph["instrs_simulated"],
		instrsSkipped:    ph["instrs_skipped"],

		storeHits:   st["hits"],
		storeMisses: st["misses"],
		storePuts:   st["puts"],

		refused:            sv["refused_quota"] + sv["refused_draining"] + sv["refused_fault"],
		degradedAdmissions: sv["degraded_admissions"],
	}
	metrics.Read(rtSamples)
	s.heapAllocBytes = rtSamples[0].Value.Uint64()
	s.gcCPU = rtSamples[1].Value.Float64()
	s.gcCycles = rtSamples[2].Value.Uint64()
	h := rtSamples[3].Value.Float64Histogram()
	s.sched = append([]uint64(nil), h.Counts...)
	if schedBuckets == nil {
		schedBuckets = append([]float64(nil), h.Buckets...)
	}
	return s
}

// delta is what happened between two snapshots.
type delta struct {
	wall, cpu time.Duration

	fanGroups, fanPoints, fanDecodes, fanFallbacks int64

	profileRuns, sampledRuns, sampledFallbacks int64
	instrsSimulated, instrsSkipped             int64

	storeHits, storeMisses, storePuts int64

	refused, degradedAdmissions int64

	allocBytes uint64
	gcCPU      float64
	gcCycles   uint64
	sched      []uint64
}

func (a snapshot) to(b snapshot) delta {
	d := delta{
		wall: b.at.Sub(a.at),
		cpu:  b.cpu - a.cpu,

		fanGroups:    b.fanGroups - a.fanGroups,
		fanPoints:    b.fanPoints - a.fanPoints,
		fanDecodes:   b.fanDecodes - a.fanDecodes,
		fanFallbacks: b.fanFallbacks - a.fanFallbacks,

		profileRuns:      b.profileRuns - a.profileRuns,
		sampledRuns:      b.sampledRuns - a.sampledRuns,
		sampledFallbacks: b.sampledFallbacks - a.sampledFallbacks,
		instrsSimulated:  b.instrsSimulated - a.instrsSimulated,
		instrsSkipped:    b.instrsSkipped - a.instrsSkipped,

		storeHits:   b.storeHits - a.storeHits,
		storeMisses: b.storeMisses - a.storeMisses,
		storePuts:   b.storePuts - a.storePuts,

		refused:            b.refused - a.refused,
		degradedAdmissions: b.degradedAdmissions - a.degradedAdmissions,

		allocBytes: b.heapAllocBytes - a.heapAllocBytes,
		gcCPU:      b.gcCPU - a.gcCPU,
		gcCycles:   b.gcCycles - a.gcCycles,
		sched:      make([]uint64, len(b.sched)),
	}
	for i := range b.sched {
		d.sched[i] = b.sched[i] - a.sched[i]
	}
	return d
}

// schedP90 is the 90th percentile of goroutine scheduling latency (time
// runnable before running) in a /sched/latencies histogram delta: the
// upper edge of the bucket holding the nearest-rank 0.9 sample.
func schedP90(counts []uint64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(stats.Rank(int(total), 0.9)) + 1
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			edge := schedBuckets[i+1]
			if math.IsInf(edge, 1) { // the open top bucket: report its lower edge
				edge = schedBuckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler records the largest resident set (VmRSS) the process
// reaches while one rep runs, reading /proc/self/statm every
// rssInterval without allocating.
type rssSampler struct {
	stop chan struct{}
	peak chan int64
}

const rssInterval = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), peak: make(chan int64, 1)}
	go func() {
		f, err := os.Open("/proc/self/statm")
		if err != nil {
			s.peak <- 0
			return
		}
		defer f.Close()
		buf := make([]byte, 128)
		peak := residentBytes(f, buf)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.peak <- max(peak, residentBytes(f, buf))
				return
			case <-t.C:
				peak = max(peak, residentBytes(f, buf))
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak it saw, in bytes.
func (s *rssSampler) end() int64 {
	close(s.stop)
	return <-s.peak
}

// residentBytes parses the resident page count, statm's second field.
func residentBytes(f *os.File, buf []byte) int64 {
	// The whole file is shorter than buf, so ReadAt reports io.EOF on
	// every successful read; a failed read leaves n at 0 and reads as 0.
	n, _ := f.ReadAt(buf, 0)
	var pages int64
	field := 0
	for _, c := range buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int64(c-'0')
		}
		if field > 1 {
			break
		}
	}
	return pages * int64(os.Getpagesize())
}

// replayCounters reads a replay cache's hit/miss tally and resident
// arena bytes.
func replayCounters(c *replay.Cache) (hits, misses, bytes int64) {
	st := c.Snapshot()
	return st.Hits, st.Misses, st.Bytes
}

// storeBytes is the on-disk segment footprint of a result store.
func storeBytes(st *store.Store) int64 { return st.Stats().Bytes }

// outcomeCounts reads a campaign outcome: runs executed, runs served
// from the result store, and runs that produced no result.
func outcomeCounts(out *runner.Outcome) (ran, fromStore, failed int) {
	return out.Ran, out.FromStore, len(out.HardFailures())
}
