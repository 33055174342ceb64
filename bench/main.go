// Command bench is the repository benchmark: it drives the simulator's
// public entry points from outside — the campaign orchestrator, the
// fan-out and single-run executors, the result store and the campaign
// service behind an in-process HTTP server — on one workload per
// process, checks that the results are correct, and prints every metric
// as "workload metric value unit n=<samples>" followed by one JSON
// summary line. See README.md for the workloads, metrics and protocol.
//
//	go run . -workload sweep-full -seed 1 -seconds 20 -trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workload is one benchmark workload.
type workload interface {
	// setup performs one complete set-up of the workload — building its
	// inputs and priming or opening what its reps use — and releases
	// it again. setup_s is the median of several.
	setup(ctx context.Context) error
	// rep runs one timed rep: a campaign, or one serve pass. tr is
	// nil on untraced reps.
	rep(ctx context.Context, tr *tracer) (*repOut, error)
	// verify runs the post-timing correctness checks that need more
	// than the reps' own results, and returns the problems found.
	verify(ctx context.Context, reps []*repOut, ref *refs, seed uint64) []string
	// layers computes the workload's per-layer metrics from the traced
	// reps, running any direct layer measurements it needs; defs are
	// the per-layer metrics to report.
	layers(ctx context.Context, reps []*repOut, tr *tracer, defs []metricDef) (map[string]float64, error)
}

// repOut is what one timed rep produced.
type repOut struct {
	d delta // counters over the timed part of the rep
	// latencies are the e2e latency samples: how long after submission
	// each computed result reached its caller.
	latencies []time.Duration
	// results are the rep's results in canonical order; digest hashes
	// them with WallTime zeroed.
	results []*sim.Result
	digest  string

	attempted, failed int
	nominal           uint64 // requested primary-core instructions
	peakRSS           int64  // largest resident set sampled during the rep
	problems          []string
	layer             map[string]float64   // per-rep layer values
	pooled            map[string][]float64 // layer samples pooled over reps
}

type options struct {
	spec     string
	workload string
	seed     uint64
	seconds  float64
	trace    string
	check    bool
	jsonOut  string
	regen    bool
	testdata string
	workdir  string
	sizes    sizes
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "benchmark description listing the metrics to report")
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (1 is the development seed, 2 is held out)")
	fs.Float64Var(&o.seconds, "seconds", 20, "how long to measure, in seconds")
	fs.StringVar(&o.trace, "trace", "0", `"0": untraced run printing end-to-end metrics; "1": traced run printing per-layer metrics, artifacts in WORKDIR/trace; any other value: traced run with artifacts in that directory`)
	fs.BoolVar(&o.check, "check", true, "run the post-timing reference checks (committed digests and determinism are always checked)")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full report (protocol, samples, checks) to this file")
	fs.BoolVar(&o.regen, "regen", false, "recompute the reference files for seeds 1 and 2 into -testdata and exit")
	fs.StringVar(&o.testdata, "testdata", "", "read reference files from this directory instead of the copies built in (default for -regen: bench/testdata)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for scratch data and trace artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.sizes = fullSizes()
	runtime.GOMAXPROCS(procs)
	if o.regen {
		if o.testdata == "" {
			o.testdata = filepath.Join("bench", "testdata")
		}
		if err := regenerate(context.Background(), o, stderr); err != nil {
			fmt.Fprintln(stderr, "bench: regen:", err)
			return 1
		}
		return 0
	}
	return measure(o, stdout, stderr)
}

// measure runs one workload under the protocol and reports it.
func measure(o options, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec(o.spec)
	if err != nil {
		return fail(err)
	}
	ref, err := loadRefs(o.testdata)
	if err != nil {
		return fail(err)
	}
	scratch := filepath.Join(o.workdir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return fail(err)
	}
	w, err := newWorkload(o.workload, o.sizes, o.seed, scratch)
	if err != nil {
		return fail(err)
	}
	traced := o.trace != "" && o.trace != "0"
	ctx := context.Background()

	var setups []float64
	pprof.Do(ctx, pprof.Labels("stage", "setup"), func(ctx context.Context) {
		for i := 0; i < o.sizes.setupReps && err == nil; i++ {
			runtime.GC()
			t0 := time.Now()
			err = w.setup(ctx)
			setups = append(setups, time.Since(t0).Seconds())
		}
	})
	if err != nil {
		return fail(fmt.Errorf("setup: %w", err))
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if traced {
		budget /= 2 // half untraced (the overhead baseline), half traced
	}
	reps, err := timeReps(ctx, w, nil, budget, o.sizes.minReps)
	if err != nil {
		return fail(err)
	}

	var treps []*repOut
	var tr *tracer
	var prof fold
	var profRaw []byte
	if traced {
		tr = newTracer()
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return fail(err)
		}
		treps, err = timeReps(ctx, w, tr, budget, o.sizes.minReps)
		pprof.StopCPUProfile()
		if err != nil {
			return fail(err)
		}
		profRaw = buf.Bytes()
		if prof, err = foldProfile(profRaw); err != nil {
			return fail(err)
		}
	}

	all := append(slices.Clone(reps), treps...)
	problems := checkReps(o.workload, o.seed, all, ref)
	if o.check {
		problems = append(problems, w.verify(ctx, all, ref, o.seed)...)
	}

	metrics := untracedMetrics(setups, reps)
	if traced {
		lm, err := w.layers(ctx, treps, tr, spec.PerLayer)
		if err != nil {
			return fail(err)
		}
		metrics = layerMetrics(lm, spec.PerLayer, prof, metrics, reps, treps)
		dir := o.trace
		if dir == "1" {
			dir = filepath.Join(o.workdir, "trace")
		}
		if err := writeTrace(dir, tr, profRaw, prof); err != nil {
			return fail(err)
		}
	}
	listed, err := complete(metrics, spec, traced)
	if err != nil {
		return fail(err)
	}

	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.attempted
		failed += r.failed
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "bench: check failed: %s\n", p)
	}
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%s %s %v %s n=%d\n", o.workload, m.Name, m.Value, m.Unit, m.N)
	}
	if o.jsonOut != "" {
		if err := writeReport(o, setups, reps, treps, metrics, problems, attempted, failed); err != nil {
			return fail(err)
		}
	}
	summary := map[string]any{
		"correct":   len(problems) == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   summaryMetrics(listed),
	}
	line, err := json.Marshal(summary)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	if len(problems) > 0 || failed > 0 {
		return 1
	}
	return 0
}

// timeReps runs reps until the budget is spent, at least minReps ran,
// and the pooled latency samples put at least ten beyond their 90th
// percentile. Each rep starts from a collected heap, so one rep's
// garbage is not charged to the next.
func timeReps(ctx context.Context, w workload, tr *tracer, budget time.Duration, minReps int) ([]*repOut, error) {
	var reps []*repOut
	start := time.Now()
	lats := 0
	var err error
	pprof.Do(ctx, pprof.Labels("stage", "campaign"), func(ctx context.Context) {
		for len(reps) < minReps || time.Since(start) < budget || stats.Beyond(lats, 0.9) < 10 {
			runtime.GC()
			rss := startRSS()
			r, rerr := w.rep(ctx, tr)
			peak := rss.end()
			if err = rerr; err != nil {
				return
			}
			r.peakRSS = peak
			reps = append(reps, r)
			lats += len(r.latencies)
		}
	})
	return reps, err
}

// checkReps applies the checks every workload shares: each rep reported
// no problem, every rep produced the same results, and those match the
// committed digest when the seed has one.
func checkReps(name string, seed uint64, reps []*repOut, ref *refs) []string {
	var problems []string
	for i, r := range reps {
		for _, p := range r.problems {
			problems = append(problems, fmt.Sprintf("rep %d: %s", i, p))
		}
		if r.digest != reps[0].digest {
			problems = append(problems, fmt.Sprintf("rep %d results differ from rep 0 (digest %s vs %s)", i, short(r.digest), short(reps[0].digest)))
		}
	}
	if want, ok := ref.digest(name, seed); ok && len(reps) > 0 && reps[0].digest != want {
		problems = append(problems, fmt.Sprintf("results digest %s does not match the committed %s for seed %d", short(reps[0].digest), short(want), seed))
	}
	return problems
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Samples are the values the metric is the median of, when it is
	// one; the full report carries them for spread checks.
	Samples []float64 `json:"samples,omitempty"`
}

// untracedMetrics computes what the untraced reps measure: the
// end-to-end metrics, and the host timings BENCHMARK.json lists as
// per-layer metrics because their run-to-run spread exceeds any bound
// the end-to-end list may carry (README.md, "Host noise").
func untracedMetrics(setups []float64, reps []*repOut) []metric {
	var walls, cpus, allocs, rss, lats []float64
	for _, r := range reps {
		walls = append(walls, r.d.wall.Seconds())
		cpus = append(cpus, r.d.cpu.Seconds())
		allocs = append(allocs, float64(r.d.allocBytes)/(1<<20))
		rss = append(rss, float64(r.peakRSS)/(1<<20))
		for _, d := range r.latencies {
			lats = append(lats, d.Seconds())
		}
	}
	camp := stats.Median(walls)
	n := len(reps)
	return []metric{
		{Name: "setup_s", Value: stats.Median(setups), N: len(setups), Samples: setups},
		{Name: "campaign_s", Value: camp, N: n, Samples: walls},
		{Name: "campaign_cpu_s", Value: stats.Median(cpus), N: n, Samples: cpus},
		{Name: "minstr_per_s", Value: ratio(float64(reps[0].nominal)/1e6, camp), N: n},
		{Name: "alloc_mb", Value: stats.Median(allocs), N: n, Samples: allocs},
		{Name: "peak_rss_mb", Value: stats.Median(rss), N: n, Samples: rss},
		{Name: "latency_s_p50", Value: stats.Percentile(lats, 0.5), N: len(lats)},
		{Name: "latency_s_p90", Value: stats.Percentile(lats, 0.9), N: len(lats)},
	}
}

// layerMetrics combines the workload's per-layer values with the
// profile fold and runtime counters of the traced reps, and with the
// untraced metrics defs lists, in the order of defs.
func layerMetrics(lm map[string]float64, defs []metricDef, prof fold, untraced []metric, reps, treps []*repOut) []metric {
	n := float64(len(treps))
	var gcCPU float64
	var gcCycles uint64
	sched := make([]uint64, len(treps[0].d.sched))
	var twalls, walls []float64
	for _, r := range treps {
		gcCPU += r.d.gcCPU
		gcCycles += r.d.gcCycles
		for i, c := range r.d.sched {
			sched[i] += c
		}
		twalls = append(twalls, r.d.wall.Seconds())
	}
	for _, r := range reps {
		walls = append(walls, r.d.wall.Seconds())
	}
	for _, l := range layers {
		lm[l+".self_cpu_s"] = prof.Layers[l] / n
	}
	lm["runtime.gc_cpu_s"] = gcCPU / n
	lm["runtime.gc_cycles"] = float64(gcCycles) / n
	lm["runtime.sched_wait_p90_us"] = float64(schedP90(sched)) / 1e3
	lm["bench.trace_overhead_frac"] = ratio(stats.Median(twalls), stats.Median(walls)) - 1
	var out []metric
	for _, def := range defs {
		if i := slices.IndexFunc(untraced, func(m metric) bool { return m.Name == def.Name }); i >= 0 {
			out = append(out, untraced[i])
		} else if v, ok := lm[def.Name]; ok {
			out = append(out, metric{Name: def.Name, Value: v, N: len(treps)})
		}
	}
	return out
}

// complete attaches each metric's unit from spec, checks that every
// metric the mode lists was computed and that spec lists the others
// too, and returns the mode's metrics: those of the summary line.
func complete(ms []metric, spec *benchSpec, traced bool) ([]metric, error) {
	mode, other := spec.EndToEnd, spec.PerLayer
	if traced {
		mode, other = other, mode
	}
	units := make(map[string]string)
	inMode := make(map[string]bool)
	for _, def := range other {
		units[def.Name] = def.Unit
	}
	for _, def := range mode {
		units[def.Name] = def.Unit
		inMode[def.Name] = true
	}
	var listed []metric
	for i := range ms {
		u, ok := units[ms[i].Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is not in the benchmark description", ms[i].Name)
		}
		if math.IsNaN(ms[i].Value) || math.IsInf(ms[i].Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", ms[i].Name, ms[i].Value)
		}
		ms[i].Unit = u
		if inMode[ms[i].Name] {
			listed = append(listed, ms[i])
			delete(inMode, ms[i].Name)
		}
	}
	if len(inMode) > 0 {
		var missing []string
		for _, def := range mode {
			if inMode[def.Name] {
				missing = append(missing, def.Name)
			}
		}
		return nil, fmt.Errorf("metrics not computed: %s", strings.Join(missing, ", "))
	}
	return listed, nil
}

func summaryMetrics(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// writeTrace stores the traced run's artifacts: the spans, the raw CPU
// profile, and its fold with the spans' self times.
func writeTrace(dir string, tr *tracer, profRaw []byte, prof fold) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(dir, "spans.jsonl")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), profRaw, 0o644); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"profile":    prof,
		"span_times": tr.selfTimes(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), b, 0o644)
}

// protocol records how and where a run measured.
type protocol struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	NumCPU     int     `json:"num_cpu"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	DataFS     string  `json:"data_fs"`
	Reps       int     `json:"reps"`
	TracedReps int     `json:"traced_reps"`
	SetupReps  int     `json:"setup_reps"`
}

func writeReport(o options, setups []float64, reps, treps []*repOut, ms []metric, problems []string, attempted, failed int) error {
	p := protocol{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: procs, NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
		DataFS: fsType(o.workdir), Reps: len(reps), TracedReps: len(treps), SetupReps: len(setups),
	}
	if problems == nil {
		problems = []string{}
	}
	b, err := json.MarshalIndent(map[string]any{
		"protocol":  p,
		"metrics":   ms,
		"correct":   len(problems) == 0,
		"problems":  problems,
		"attempted": attempted,
		"failed":    failed,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.jsonOut, append(b, '\n'), 0o644)
}

// cpuModel is the host CPU's model name.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
