package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

const specPath = "../BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSON checks BENCHMARK.json, the program's list of
// workloads and metrics: the workloads are the program's, every metric
// name is well formed and used once, and every end-to-end bound is at
// most 10% but set-up time's, which must be the largest.
func TestBenchmarkJSON(t *testing.T) {
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range s.Workloads {
		wls = append(wls, w.Name)
	}
	if strings.Join(wls, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wls, workloadNames)
	}
	seen := make(map[string]bool)
	for _, m := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	maxBound := 0.0
	for _, m := range s.EndToEnd {
		maxBound = max(maxBound, m.Bound)
		if m.Name != "setup_s" && (m.Bound <= 0 || m.Bound > 0.1) {
			t.Errorf("%s: bound %v, want in (0, 0.1]", m.Name, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range s.EndToEnd {
		if m.Name == "setup_s" && (m.Bound != maxBound || m.Bound > 0.25 || m.Better != "lower" || m.Unit != "s") {
			t.Errorf("setup_s must be in s, lower-better, with the largest bound, at most 0.25: %+v", m)
		}
	}
	for _, m := range s.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs every workload at tiny size,
// untraced and traced, and checks that the summary line carries exactly
// the mode's listed metrics, and that the printed metric lines carry
// those and otherwise only metrics BENCHMARK.json lists (an untraced run
// also prints the host timings listed as per-layer metrics).
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			defs, mode := s.EndToEnd, "0"
			if traced {
				defs, mode = s.PerLayer, t.TempDir()
			}
			var stdout, stderr bytes.Buffer
			code := measure(tinyOptions(t, w, mode), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace=%v: exit %d\n%s", w, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var summary struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
				t.Fatalf("%s: summary line: %v", w, err)
			}
			if !summary.Correct || summary.Attempted < 1 || summary.Failed != 0 {
				t.Errorf("%s trace=%v: summary %+v", w, traced, summary)
			}
			listed := make(map[string]bool)
			for _, d := range append(slices.Clone(s.EndToEnd), s.PerLayer...) {
				listed[d.Name] = true
			}
			var want, got, printed []string
			for _, d := range defs {
				want = append(want, d.Name)
			}
			for k := range summary.Metrics {
				got = append(got, k)
			}
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 5 || f[0] != w || !strings.HasPrefix(f[4], "n=") {
					t.Errorf("%s: malformed metric line %q", w, l)
					continue
				}
				if !listed[f[1]] {
					t.Errorf("%s trace=%v: printed metric %s is not in BENCHMARK.json", w, traced, f[1])
				}
				printed = append(printed, f[1])
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%v: summary has %v, want %v", w, traced, got, want)
			}
			for _, name := range want {
				if !slices.Contains(printed, name) {
					t.Errorf("%s trace=%v: no metric line for %s", w, traced, name)
				}
			}
		}
	}
}

// tinyOptions runs a workload at tiny size with no committed references.
func tinyOptions(t *testing.T, workload, trace string) options {
	return options{
		spec: specPath, workload: workload, seed: 7, seconds: 0.01, trace: trace, check: true,
		testdata: t.TempDir(), workdir: t.TempDir(), sizes: tinySizes(),
	}
}
