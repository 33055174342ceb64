package main

import (
	"strings"
	"testing"
)

func TestHistoryLabel(t *testing.T) {
	cases := map[string]string{
		"BENCH_2026-08-06.json":                "2026-08-06",
		"BENCH_2026-08-06_replay.json":         "2026-08-06_replay",
		"reports/BENCH_2026-08-08_fanout.json": "2026-08-08_fanout",
		"whatever.json":                        "whatever",
	}
	for in, want := range cases {
		if got := historyLabel(in); got != want {
			t.Errorf("historyLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFmtNs(t *testing.T) {
	cases := map[float64]string{
		12:     "12ns",
		4_500:  "4.5us",
		7.2e6:  "7.2ms",
		1.23e9: "1.23s",
		9.57e8: "957.0ms",
	}
	for in, want := range cases {
		if got := fmtNs(in); got != want {
			t.Errorf("fmtNs(%g) = %q, want %q", in, got, want)
		}
	}
}

// TestHistoryTable locks the trajectory semantics: columns sorted by
// report date, per-benchmark speedup computed first-vs-newest, absences
// rendered as "-" and never counted as a measurement.
func TestHistoryTable(t *testing.T) {
	// Deliberately out of order: the table must sort by date.
	entries := []historyEntry{
		{label: "2026-08-08", rep: &Report{Date: "2026-08-08", Benchmarks: []Result{
			{Name: "BenchmarkSweep", NsPerOp: 1e8},
			{Name: "BenchmarkNew", NsPerOp: 5e6},
		}}},
		{label: "2026-08-06", rep: &Report{Date: "2026-08-06", Benchmarks: []Result{
			{Name: "BenchmarkSweep", NsPerOp: 1e9},
			{Name: "BenchmarkRetired", NsPerOp: 2e6},
		}}},
	}
	got := historyTable(entries)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 5 { // header count + column header + 3 benchmarks
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), got)
	}
	header := lines[1]
	if i6, i8 := strings.Index(header, "2026-08-06"), strings.Index(header, "2026-08-08"); i6 < 0 || i8 < 0 || i6 > i8 {
		t.Fatalf("columns not in date order: %q", header)
	}
	find := func(name string) string {
		t.Helper()
		for _, l := range lines {
			if strings.HasPrefix(l, name) {
				return l
			}
		}
		t.Fatalf("no row for %s in:\n%s", name, got)
		return ""
	}
	sweep := find("BenchmarkSweep")
	if !strings.Contains(sweep, "1.00s") || !strings.Contains(sweep, "100.0ms") || !strings.Contains(sweep, "10.00x") {
		t.Errorf("sweep trajectory wrong: %q", sweep)
	}
	// A benchmark seen only once has no trajectory: cell filled, speedup "-".
	if neu := find("BenchmarkNew"); !strings.Contains(neu, "5.0ms") || !strings.HasSuffix(strings.TrimRight(neu, " "), "-") {
		t.Errorf("single-appearance row should end with '-': %q", neu)
	}
	if ret := find("BenchmarkRetired"); !strings.Contains(ret, "2.0ms") || strings.Count(ret, "-") < 2 {
		t.Errorf("retired row should carry '-' for the missing column and speedup: %q", ret)
	}
}

// TestHistoryTableMarksMismatchedProcs checks a cell measured at a
// different GOMAXPROCS than its row's first report is marked, and that
// the row reports no speedup across the two protocols.
func TestHistoryTableMarksMismatchedProcs(t *testing.T) {
	entries := []historyEntry{
		{label: "2026-08-06", rep: &Report{Date: "2026-08-06", Benchmarks: []Result{
			{Name: "BenchmarkLookup", Procs: 8, NsPerOp: 64},
			{Name: "BenchmarkSweep", Procs: 1, NsPerOp: 1e9},
		}}},
		{label: "2026-08-08", rep: &Report{Date: "2026-08-08", Benchmarks: []Result{
			{Name: "BenchmarkLookup", Procs: 1, NsPerOp: 1300},
			{Name: "BenchmarkSweep", Procs: 1, NsPerOp: 5e8},
		}}},
	}
	got := historyTable(entries)
	var lookup, sweep string
	for _, l := range strings.Split(got, "\n") {
		switch {
		case strings.HasPrefix(l, "BenchmarkLookup"):
			lookup = l
		case strings.HasPrefix(l, "BenchmarkSweep"):
			sweep = l
		}
	}
	if !strings.Contains(lookup, "1.3us"+crossProcs) || strings.Contains(lookup, "64ns"+crossProcs) {
		t.Errorf("only the cross-procs cell should be marked: %q", lookup)
	}
	if !strings.HasSuffix(strings.TrimRight(lookup, " "), "-") || strings.Contains(lookup, "x") {
		t.Errorf("cross-procs row must report no speedup: %q", lookup)
	}
	if !strings.Contains(sweep, "2.00x") || strings.Contains(sweep, crossProcs) {
		t.Errorf("same-procs row should be ranked and unmarked: %q", sweep)
	}
	if !strings.Contains(got, crossProcs+" procs differ") {
		t.Errorf("table lacks the cross-procs legend:\n%s", got)
	}
}

// TestHistoryTableSkipsOneShots checks a one-shot cell (one iteration
// of a sub-millisecond benchmark) is marked and left out of the row's
// ranking, whether it is the first or the newest cell, and that the
// table explains the mark.
func TestHistoryTableSkipsOneShots(t *testing.T) {
	report := func(date string, rs ...Result) historyEntry {
		return historyEntry{label: date, rep: &Report{Date: date, Benchmarks: rs}}
	}
	entries := []historyEntry{
		report("2026-08-06",
			Result{Name: "BenchmarkLookup", Procs: 1, Iterations: 1000, NsPerOp: 100},
			Result{Name: "BenchmarkTraceGen", Procs: 1, Iterations: 1, NsPerOp: 36}),
		report("2026-08-07",
			Result{Name: "BenchmarkLookup", Procs: 1, Iterations: 1000, NsPerOp: 50},
			Result{Name: "BenchmarkTraceGen", Procs: 1, Iterations: 500, NsPerOp: 400},
			Result{Name: "BenchmarkShots", Procs: 1, Iterations: 1, NsPerOp: 900}),
		report("2026-08-08",
			Result{Name: "BenchmarkLookup", Procs: 1, Iterations: 1, NsPerOp: 1300},
			Result{Name: "BenchmarkTraceGen", Procs: 1, Iterations: 500, NsPerOp: 200},
			Result{Name: "BenchmarkShots", Procs: 1, Iterations: 1, NsPerOp: 90},
			Result{Name: "BenchmarkSweep", Procs: 1, Iterations: 1, NsPerOp: 2e8}),
	}
	got := historyTable(entries)
	row := func(name string) string {
		t.Helper()
		for _, l := range strings.Split(got, "\n") {
			if strings.HasPrefix(l, name+" ") {
				return strings.TrimRight(l, " ")
			}
		}
		t.Fatalf("no row for %s in:\n%s", name, got)
		return ""
	}
	// Newest cell one-shot: marked, and the speedup runs over the two
	// multi-iteration cells (100ns -> 50ns).
	if l := row("BenchmarkLookup"); !strings.Contains(l, "1.3us"+oneShotMark) || !strings.HasSuffix(l, "2.00x") {
		t.Errorf("one-shot newest cell must be marked and skipped: %q", l)
	}
	// First cell one-shot: marked, and the speedup starts at the first
	// ranked cell (400ns -> 200ns), not at the 36ns one-shot.
	if l := row("BenchmarkTraceGen"); !strings.Contains(l, "36ns"+oneShotMark) || !strings.HasSuffix(l, "2.00x") {
		t.Errorf("one-shot first cell must be marked and skipped: %q", l)
	}
	// Only one-shots: no trajectory.
	if l := row("BenchmarkShots"); !strings.HasSuffix(l, "-") || strings.Contains(l, "x") {
		t.Errorf("an all-one-shot row must report no speedup: %q", l)
	}
	// A single-iteration benchmark over 1ms is a real measurement.
	if l := row("BenchmarkSweep"); strings.Contains(l, oneShotMark) {
		t.Errorf("a 200ms single iteration is not a one-shot: %q", l)
	}
	if !strings.Contains(got, oneShotMark+" one-shot") {
		t.Errorf("table lacks the one-shot footnote:\n%s", got)
	}
	if strings.Contains(got, crossProcs+" procs differ") {
		t.Errorf("no cell differs in procs, yet the table carries the legend:\n%s", got)
	}
}
