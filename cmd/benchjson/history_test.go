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
