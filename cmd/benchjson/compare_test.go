package main

import (
	"strings"
	"testing"
)

func rep(pairs ...any) *Report {
	r := &Report{Date: "2026-01-01", Commit: "abc1234"}
	for i := 0; i < len(pairs); i += 2 {
		r.Benchmarks = append(r.Benchmarks, Result{
			Name:       pairs[i].(string),
			Iterations: 1000,
			NsPerOp:    pairs[i+1].(float64),
		})
	}
	return r
}

func TestCompareBaselineFlagsRegressions(t *testing.T) {
	base := rep("BenchmarkA", 100.0, "BenchmarkB", 100.0, "BenchmarkGone", 50.0)
	cur := rep(
		"BenchmarkA", 40.0, // 2.5x speedup
		"BenchmarkB", 200.0, // 2x slowdown: past a 0.5 tolerance
		"BenchmarkNew", 10.0, // no baseline entry: reported, never fails
	)
	table, regressed := compareBaseline(base, cur, 0.5)
	if len(regressed) != 1 || regressed[0] != "BenchmarkB" {
		t.Fatalf("regressed = %v, want [BenchmarkB]", regressed)
	}
	for _, want := range []string{"2.50x", "0.50x", "REGRESSED", "NEW", "RETIRED"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	if strings.Count(table, "REGRESSED") != 1 {
		t.Errorf("only BenchmarkB should be marked:\n%s", table)
	}
}

// TestCompareBaselineReportsNewBenchmarks pins the freshly-added-
// benchmark contract: a benchmark missing from the baseline (the usual
// state right after a perf PR adds one) is reported as NEW on its own
// line and can neither regress nor disappear from the table, no matter
// how slow its first recorded run is.
func TestCompareBaselineReportsNewBenchmarks(t *testing.T) {
	base := rep("BenchmarkOld", 100.0)
	cur := rep("BenchmarkOld", 100.0, "BenchmarkSweepFanout", 9e9)
	table, regressed := compareBaseline(base, cur, 0.0)
	if len(regressed) != 0 {
		t.Fatalf("a NEW benchmark was gated as a regression: %v", regressed)
	}
	line := ""
	for _, l := range strings.Split(table, "\n") {
		if strings.Contains(l, "BenchmarkSweepFanout") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("NEW benchmark dropped from the table:\n%s", table)
	}
	if !strings.Contains(line, "NEW") {
		t.Errorf("missing NEW marker: %q", line)
	}
}

// TestCompareBaselineSkipsOneShots pins the 1x-run rule: a single
// iteration of a sub-millisecond benchmark measures harness overhead,
// so it's reported but never gated — in either direction.
func TestCompareBaselineSkipsOneShots(t *testing.T) {
	base := rep("BenchmarkMicro", 60.0, "BenchmarkSweep", 4e8)
	cur := rep("BenchmarkMicro", 6000.0, "BenchmarkSweep", 9e8)
	cur.Benchmarks[0].Iterations = 1 // 1x run: 100x "slower", meaningless
	cur.Benchmarks[1].Iterations = 1 // 1x run of a 0.9s op: trustworthy
	table, regressed := compareBaseline(base, cur, 0.5)
	if len(regressed) != 1 || regressed[0] != "BenchmarkSweep" {
		t.Fatalf("regressed = %v, want [BenchmarkSweep]:\n%s", regressed, table)
	}
	if !strings.Contains(table, "1-shot") {
		t.Errorf("one-shot micro comparison not annotated:\n%s", table)
	}
}

func TestCompareBaselineTolerance(t *testing.T) {
	base := rep("BenchmarkA", 100.0)
	cur := rep("BenchmarkA", 140.0) // 40% slower
	if _, regressed := compareBaseline(base, cur, 0.5); len(regressed) != 0 {
		t.Errorf("40%% slowdown failed a 50%% tolerance: %v", regressed)
	}
	if _, regressed := compareBaseline(base, cur, 0.25); len(regressed) != 1 {
		t.Error("40% slowdown passed a 25% tolerance")
	}
}

// TestCompareBaselineSkipsMismatchedProcs pins the protocol rule: a pair
// measured at different GOMAXPROCS is reported with both procs but never
// gated, however far apart the timings are.
func TestCompareBaselineSkipsMismatchedProcs(t *testing.T) {
	base := rep("BenchmarkLookup", 60.0, "BenchmarkSweep", 4e8)
	cur := rep("BenchmarkLookup", 6000.0, "BenchmarkSweep", 9e8)
	for i := range base.Benchmarks {
		base.Benchmarks[i].Procs = 8
		cur.Benchmarks[i].Procs = 1
	}
	cur.Benchmarks[1].Procs = 8 // same protocol: still gated
	table, regressed := compareBaseline(base, cur, 0.5)
	if len(regressed) != 1 || regressed[0] != "BenchmarkSweep" {
		t.Fatalf("regressed = %v, want [BenchmarkSweep]:\n%s", regressed, table)
	}
	if !strings.Contains(table, "(procs 8 vs 1, not gated)") {
		t.Errorf("mismatched procs not annotated:\n%s", table)
	}
}
