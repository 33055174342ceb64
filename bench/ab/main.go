// Command ab compares two builds of the benchmark: the parent commit's
// and a change's. It runs interleaved untraced pairs of one workload,
// alternating which side runs first, and prints each side's median and
// quartiles per metric with a verdict:
//
//   - gain: the change wins at least 9 in 10 pairs, and the medians
//     differ by more than the parent's interquartile range;
//   - regression: the change's median is worse than the parent's by
//     more than the metric's bound;
//   - unresolved: the parent's own spread is wider than the bound, and
//     not every change run beats every parent run;
//   - within bound: none of the above.
//
// It compares every metric an untraced run measures that BENCHMARK.json
// lists: the end-to-end metrics under their bounds, and the host timings
// listed among the per-layer metrics under timingBound.
//
// Build each side with bench/run.sh in its own checkout (the binary is
// .bench_build/pintebench), then from the change's bench directory:
//
//	go run ./ab -spec ../BENCHMARK.json -a ../../parent/.bench_build/pintebench -b ../.bench_build/pintebench -workload sweep-full
//
// It exits 1 when any metric regressed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

	"repro/bench/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// timingBound is the regression bound for a listed metric that carries
// none: the per-layer host timings, whose run-to-run spread on a shared
// host is too wide for a bound the end-to-end list may hold. 10% is the
// bound the benchmark was designed around (README.md).
const timingBound = 0.1

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the verdicts need.
type spec struct {
	RunSeconds int         `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

// report is the part of a run's -json report the verdicts need.
type report struct {
	Correct bool `json:"correct"`
	Metrics []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func (r report) value(name string) (float64, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a := fs.String("a", "", "parent benchmark binary")
	b := fs.String("b", "", "change benchmark binary")
	workload := fs.String("workload", "", "workload to compare")
	seed := fs.Uint64("seed", 1, "input seed; a gain must also hold on the held-out seed 2")
	seconds := fs.Int("seconds", 0, "measurement length of each run (default: BENCHMARK.json's run_seconds)")
	pairs := fs.Int("pairs", 10, "interleaved pairs to run (at least 10)")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description holding the metrics' directions and bounds")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "ab"), "scratch directory for both sides")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *a == "" || *b == "" || *workload == "" {
		fmt.Fprintln(stderr, "ab: -a, -b and -workload are required")
		return 2
	}
	if *pairs < 10 {
		fmt.Fprintln(stderr, "ab: at least 10 pairs are needed for a verdict")
		return 2
	}
	raw, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintln(stderr, "ab:", err)
		return 1
	}
	if *seconds == 0 {
		*seconds = sp.RunSeconds
	}

	var runsA, runsB []report
	for i := 0; i < *pairs; i++ {
		order := []string{"a", "b"}
		if i%2 == 1 {
			order = []string{"b", "a"}
		}
		for _, side := range order {
			bin := *a
			if side == "b" {
				bin = *b
			}
			s, err := runOnce(bin, *specPath, filepath.Join(*workdir, side), *workload, *seed, *seconds)
			if err != nil {
				fmt.Fprintf(stderr, "ab: pair %d side %s: %v\n", i, side, err)
				return 1
			}
			if side == "a" {
				runsA = append(runsA, s)
			} else {
				runsB = append(runsB, s)
			}
		}
		fmt.Fprintf(stderr, "ab: pair %d/%d done\n", i+1, *pairs)
	}

	regressed := false
	fmt.Fprintf(stdout, "%-16s %-32s %-32s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		xa, okA := values(runsA, m.Name)
		xb, okB := values(runsB, m.Name)
		if !okA || !okB {
			continue // measured by traced runs only
		}
		bound := m.Bound
		if bound == 0 {
			bound = timingBound
		}
		v := compare(xa, xb, m.Better == "higher", bound)
		if v.verdict == "regression" {
			regressed = true
		}
		fmt.Fprintf(stdout, "%-16s %-32s %-32s %+7.2f%% %3d/%-2d  %s\n", m.Name,
			quart(xa, m.Unit), quart(xb, m.Unit), 100*v.delta, v.wins, len(xa), v.verdict)
	}
	if regressed {
		return 1
	}
	return 0
}

// runOnce runs one side once, untraced, and reads its full report.
func runOnce(bin, specPath, dir string, workload string, seed uint64, seconds int) (report, error) {
	var r report
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return r, err
	}
	out := filepath.Join(dir, "report.json")
	cmd := exec.Command(bin, "-spec", specPath, "-workdir", dir, "-json", out, "-check=false", "--workload", workload,
		"--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	if _, err := cmd.Output(); err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return r, fmt.Errorf("%s: %v: %s", bin, err, ee.Stderr)
		}
		return r, err
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: report: %w", bin, err)
	}
	if !r.Correct {
		return r, fmt.Errorf("%s: results failed their checks", bin)
	}
	return r, nil
}

// values gathers one metric over runs; false when a run lacks it.
func values(runs []report, name string) ([]float64, bool) {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.value(name)
		if !ok {
			return nil, false
		}
		out[i] = v
	}
	return out, true
}

// result is one metric's comparison.
type result struct {
	delta   float64 // (change - parent) / parent, of the medians
	wins    int     // pairs the change won
	verdict string
}

// compare applies the verdict rules to paired runs of parent (xa) and
// change (xb).
func compare(xa, xb []float64, higherBetter bool, bound float64) result {
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	worst := slices.Max[[]float64]
	best := slices.Min[[]float64]
	if higherBetter {
		worst, best = best, worst
	}
	var r result
	for i := range xa {
		if better(xb[i], xa[i]) {
			r.wins++
		}
	}
	ma, mb := stats.Median(xa), stats.Median(xb)
	q1, q3, _ := stats.Quartiles(xa)
	spread := q3 - q1
	if ma != 0 {
		r.delta = (mb - ma) / ma
	}
	loss := r.delta // share by which the change reads worse
	if higherBetter {
		loss = -r.delta
	}
	switch {
	case ma != 0 && spread/ma > bound && !better(worst(xb), best(xa)):
		r.verdict = "unresolved"
	case 10*r.wins >= 9*len(xa) && better(mb, ma) && math.Abs(mb-ma) > spread:
		r.verdict = "gain"
	case loss > bound:
		r.verdict = "regression"
	default:
		r.verdict = "within bound"
	}
	return r
}

func quart(xs []float64, unit string) string {
	q1, q3, _ := stats.Quartiles(xs)
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", stats.Median(xs), unit, q1, q3)
}
