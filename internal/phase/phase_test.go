package phase

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"repro/internal/telemetry"
)

// twoPhaseSeries builds a synthetic alternating series: blocks of
// cache-friendly intervals (high IPC, low MPKI) interleaved with
// cache-hostile ones, with mild deterministic jitter so clusters are
// tight but not degenerate.
func twoPhaseSeries(n int) *telemetry.Series {
	const every = 10_000
	s := &telemetry.Series{Every: every}
	for i := 0; i < n; i++ {
		jit := float64(i%3) * 0.01
		iv := telemetry.Interval{
			EndInstrs: uint64(i+1) * every,
			Instrs:    every,
		}
		if (i/4)%2 == 0 { // phase A: compute-bound
			iv.IPC = 1.5 + jit
			iv.L1DMPKI, iv.L2MPKI, iv.LLCMPKI = 2, 1, 0.2+jit
			iv.LLCOccupancyFrac = 0.1
			iv.EngineAccesses, iv.EngineTriggers = 100, 1
		} else { // phase B: memory-bound
			iv.IPC = 0.4 + jit
			iv.L1DMPKI, iv.L2MPKI, iv.LLCMPKI = 40, 25, 12+jit
			iv.LLCOccupancyFrac = 0.6
			iv.EngineAccesses, iv.EngineTriggers = 2000, 180
		}
		iv.Cycles = uint64(float64(iv.Instrs) / iv.IPC)
		s.Intervals = append(s.Intervals, iv)
	}
	return s
}

func TestAnalyzeTwoPhases(t *testing.T) {
	s := twoPhaseSeries(40)
	plan, err := Analyze(s, 42)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases != 2 {
		t.Fatalf("found %d phases, want 2 (%s)", plan.Phases, plan)
	}
	if len(plan.Windows) != 2 {
		t.Fatalf("got %d windows, want 2", len(plan.Windows))
	}
	if got, want := plan.TotalCover(), uint64(40*10_000); got != want {
		t.Fatalf("TotalCover = %d, want %d (every interval assigned)", got, want)
	}
	// Both phases carry half the mass in this construction.
	for _, w := range plan.Windows {
		if w.CoverInstrs != 20*10_000 {
			t.Fatalf("window %+v cover, want 200000", w)
		}
		if w.End-w.Start != 10_000 {
			t.Fatalf("window %+v width, want one interval", w)
		}
	}
	if plan.Windows[0].Start >= plan.Windows[1].Start {
		t.Fatalf("windows not sorted: %+v", plan.Windows)
	}
	if plan.WarmupInstrs != 10_000 {
		t.Fatalf("default warmup = %d, want one interval", plan.WarmupInstrs)
	}

	// Sampling budget: 2 windows + warmup vs 400k profiled instrs.
	if plan.SimInstrs() != 2*(10_000+10_000) {
		t.Fatalf("SimInstrs = %d", plan.SimInstrs())
	}

	// Self-consistency: the cluster-weighted representative IPC must
	// reconstruct the series mean within the plan's own stated bound.
	var repIPC, meanIPC float64
	for _, w := range plan.Windows {
		idx := int(w.Start / s.Every)
		repIPC += float64(w.CoverInstrs) / float64(plan.TotalCover()) * s.Intervals[idx].IPC
	}
	for i := range s.Intervals {
		meanIPC += s.Intervals[i].IPC
	}
	meanIPC /= float64(len(s.Intervals))
	if rel := math.Abs(repIPC-meanIPC) / meanIPC; rel > plan.Bounds.IPCRel+1e-9 {
		t.Fatalf("extrapolated IPC off by %.4f, stated bound %.4f", rel, plan.Bounds.IPCRel)
	}
	// The jitter is ±0.02 around means ~1 apart: bounds must be tight.
	if plan.Bounds.IPCRel > 0.05 || plan.Bounds.TriggerRateAbs > 0.02 {
		t.Fatalf("bounds too loose for tight clusters: %+v", plan.Bounds)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	s := twoPhaseSeries(40)
	a, err := Analyze(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(twoPhaseSeries(40), 7)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same seed produced different plans:\n%s\n%s", aj, bj)
	}
}

func TestAnalyzeUniformSeriesOnePhase(t *testing.T) {
	s := &telemetry.Series{Every: 1000}
	for i := 0; i < 20; i++ {
		s.Intervals = append(s.Intervals, telemetry.Interval{
			EndInstrs: uint64(i+1) * 1000, Instrs: 1000, Cycles: 2000, IPC: 0.5, LLCMPKI: 3,
		})
	}
	plan, err := Analyze(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases != 1 || len(plan.Windows) != 1 {
		t.Fatalf("uniform series: %d phases, %d windows, want 1/1", plan.Phases, len(plan.Windows))
	}
	if plan.Bounds.IPCRel != 0 || plan.Bounds.TriggerRateAbs != 0 {
		t.Fatalf("identical intervals must give zero bounds: %+v", plan.Bounds)
	}
}

func TestAnalyzeTooShort(t *testing.T) {
	if _, err := Analyze(twoPhaseSeries(5), 1); !errors.Is(err, ErrTooShort) {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
	if _, err := Analyze(nil, 1); !errors.Is(err, ErrTooShort) {
		t.Fatalf("nil series err = %v, want ErrTooShort", err)
	}
}

// TestAnalyzeMaxPhasesCap keeps the plan small even when the series is
// genuinely diverse: a staircase of distinct levels must be capped at
// the phase cap with every interval still covered by some phase.
func TestAnalyzeMaxPhasesCap(t *testing.T) {
	s := &telemetry.Series{Every: 1000}
	for i := 0; i < 32; i++ {
		s.Intervals = append(s.Intervals, telemetry.Interval{
			EndInstrs: uint64(i+1) * 1000, Instrs: 1000, Cycles: 1000,
			IPC: float64(i), LLCMPKI: float64(32 - i),
		})
	}
	plan, err := analyze(s, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Phases > 3 {
		t.Fatalf("phases = %d, want <= 3", plan.Phases)
	}
	if plan.TotalCover() != 32*1000 {
		t.Fatalf("cover = %d, want full series", plan.TotalCover())
	}
}
