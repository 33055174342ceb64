package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// historyLabel derives a column label from a report file name:
// BENCH_2026-08-06_replay.json -> "2026-08-06_replay". Files that don't
// follow the convention fall back to their base name.
func historyLabel(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, ".json")
	return strings.TrimPrefix(base, "BENCH_")
}

// fmtNs renders a ns/op figure in the largest unit that keeps three-ish
// significant digits; ASCII units only so column widths stay byte-true.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// historyEntry pairs one report with its column label for sorting.
type historyEntry struct {
	label string
	rep   *Report
}

// historyTable renders the per-benchmark performance trajectory across a
// series of committed BENCH_*.json reports: one column per report
// (sorted by report date, then label), one row per benchmark (sorted by
// name), each cell the ns/op at that point in time, and a trailing
// speedup of the newest measurement against the benchmark's first
// appearance — the long-run answer to "is this artifact getting cheaper
// to rebuild?". Benchmarks absent from a report show "-"; a benchmark
// must appear in at least one report to get a row. A cell measured at a
// different GOMAXPROCS (procs) than the row's first appearance is a
// different protocol: it is marked with crossProcs and, when it is the
// newest, the row reports no speedup. A one-shot cell (a sub-millisecond
// benchmark timed over a single -benchtime 1x iteration, mostly harness
// overhead) is marked with oneShotMark and never ranked: the speedup
// runs from the row's first to its newest cell that is not one.
func historyTable(entries []historyEntry) string {
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].rep.Date != entries[b].rep.Date {
			return entries[a].rep.Date < entries[b].rep.Date
		}
		return entries[a].label < entries[b].label
	})

	// name -> column -> result (NsPerOp 0 = absent). Within one report
	// the last entry for a name wins, matching compareBaseline's map
	// semantics.
	cells := map[string][]Result{}
	var names []string
	for ci, e := range entries {
		for _, r := range e.rep.Benchmarks {
			row, ok := cells[r.Name]
			if !ok {
				row = make([]Result, len(entries))
				cells[r.Name] = row
				names = append(names, r.Name)
			}
			row[ci] = r
		}
	}
	sort.Strings(names)

	nameW := len("benchmark")
	for _, n := range names {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	colW := len("speedup")
	for _, e := range entries {
		if len(e.label) > colW {
			colW = len(e.label)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trajectory across %d report(s):\n", len(entries))
	fmt.Fprintf(&b, "%-*s", nameW, "benchmark")
	for _, e := range entries {
		fmt.Fprintf(&b, "  %*s", colW, e.label)
	}
	fmt.Fprintf(&b, "  %*s\n", colW, "speedup")
	markedProcs, markedShots := false, false
	for _, n := range names {
		row := cells[n]
		fmt.Fprintf(&b, "%-*s", nameW, n)
		// procs is the row's first appearance; first and last are its
		// first and newest ranked (not one-shot) cells.
		procs := -1
		var first, last Result
		for _, r := range row {
			if r.NsPerOp <= 0 {
				continue
			}
			if procs < 0 {
				procs = r.Procs
			}
			if !oneShot(r) {
				if first.NsPerOp == 0 {
					first = r
				}
				last = r
			}
		}
		for _, r := range row {
			if r.NsPerOp == 0 {
				fmt.Fprintf(&b, "  %*s", colW, "-")
				continue
			}
			cell := fmtNs(r.NsPerOp)
			if r.Procs != procs {
				markedProcs = true
				cell += crossProcs
			}
			if oneShot(r) {
				markedShots = true
				cell += oneShotMark
			}
			fmt.Fprintf(&b, "  %*s", colW, cell)
		}
		// Speedup is first-vs-newest under one protocol; a single
		// ranked appearance has no trajectory yet.
		if first.NsPerOp > 0 && last.NsPerOp > 0 && first.NsPerOp != last.NsPerOp &&
			first.Procs == procs && last.Procs == procs {
			fmt.Fprintf(&b, "  %*s\n", colW, fmt.Sprintf("%.2fx", first.NsPerOp/last.NsPerOp))
		} else {
			fmt.Fprintf(&b, "  %*s\n", colW, "-")
		}
	}
	if markedProcs {
		fmt.Fprintf(&b, "%s procs differ from the row's first report: not ranked\n", crossProcs)
	}
	if markedShots {
		fmt.Fprintf(&b, "%s one-shot timing (1 iteration, under 1ms; mostly harness overhead): not ranked\n", oneShotMark)
	}
	return b.String()
}

// crossProcs marks a history cell measured at a different GOMAXPROCS
// than its row's first appearance; oneShotMark marks a one-shot cell.
const (
	crossProcs  = "*"
	oneShotMark = "~"
)

// runHistory loads the given report files (default: BENCH_*.json in the
// current directory) and prints their trajectory table.
func runHistory(paths []string) error {
	if len(paths) == 0 {
		var err error
		paths, err = filepath.Glob("BENCH_*.json")
		if err != nil {
			return err
		}
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json reports found")
	}
	entries := make([]historyEntry, 0, len(paths))
	for _, p := range paths {
		rep, err := readReport(p)
		if err != nil {
			return err
		}
		entries = append(entries, historyEntry{label: historyLabel(p), rep: rep})
	}
	fmt.Print(historyTable(entries))
	return nil
}
