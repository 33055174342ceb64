package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// readReport loads an earlier BENCH_*.json for use as a baseline.
func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// oneShot reports whether a result is a single-iteration timing of a
// sub-millisecond benchmark: at -benchtime 1x such a number is mostly
// harness overhead, not the op, so it cannot be gated on.
func oneShot(r Result) bool { return r.Iterations <= 1 && r.NsPerOp < 1e6 }

// compareBaseline renders a per-benchmark speedup table of cur against
// base and returns the names of benchmarks whose ns/op regressed beyond
// tol (fractional: 0.5 = 50% slower than baseline). Benchmarks present
// on only one side are listed — NEW when the baseline predates them,
// RETIRED when they've since been dropped — but never count as
// regressions, so adding or retiring a benchmark doesn't fail the gate;
// nor do comparisons across protocols: a pair run at different GOMAXPROCS
// (procs), or where either side is a one-shot sub-millisecond timing
// (run with BENCHTIME=2s BENCHCOUNT=6 to gate the micro-benchmarks too).
func compareBaseline(base, cur *Report, tol float64) (string, []string) {
	old := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		old[r.Name] = r
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	width := len("benchmark")
	for _, r := range cur.Benchmarks {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}
	for _, r := range base.Benchmarks {
		if len(r.Name) > width {
			width = len(r.Name)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "vs baseline %s (%s):\n", base.Date, base.Commit)
	fmt.Fprintf(&b, "%-*s  %14s  %14s  %8s\n",
		width, "benchmark", "base ns/op", "ns/op", "speedup")
	var regressed []string
	for _, r := range cur.Benchmarks {
		seen[r.Name] = true
		o, ok := old[r.Name]
		if !ok {
			// No baseline entry: the benchmark postdates the baseline
			// file. Report it so the run is visible, but a NEW
			// benchmark can neither regress nor be dropped.
			fmt.Fprintf(&b, "%-*s  %14s  %14.1f  %8s\n",
				width, r.Name, "-", r.NsPerOp, "NEW")
			continue
		}
		if o.NsPerOp <= 0 || r.NsPerOp <= 0 {
			fmt.Fprintf(&b, "%-*s  %14.1f  %14.1f  %8s  (no timing, not gated)\n",
				width, r.Name, o.NsPerOp, r.NsPerOp, "-")
			continue
		}
		speedup := o.NsPerOp / r.NsPerOp
		mark := ""
		switch {
		case o.Procs != r.Procs:
			mark = fmt.Sprintf("  (procs %d vs %d, not gated)", o.Procs, r.Procs)
		case oneShot(o) || oneShot(r):
			mark = "  (1-shot, not gated)"
		case r.NsPerOp > o.NsPerOp*(1+tol):
			mark = "  REGRESSED"
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(&b, "%-*s  %14.1f  %14.1f  %7.2fx%s\n",
			width, r.Name, o.NsPerOp, r.NsPerOp, speedup, mark)
	}
	for _, o := range base.Benchmarks {
		if !seen[o.Name] {
			fmt.Fprintf(&b, "%-*s  %14.1f  %14s  %8s\n",
				width, o.Name, o.NsPerOp, "-", "RETIRED")
		}
	}
	return b.String(), regressed
}
