// Command benchjson converts `go test -bench` output on stdin into the
// repo's benchmark-trajectory JSON format (BENCH_<date>.json). The raw
// text is echoed to stdout unchanged so the tool can sit at the end of
// a pipe without hiding the live benchmark progress.
//
// Usage:
//
//	go test -bench . -benchmem ./... | benchjson -out BENCH_2026-08-06.json
//
// With -baseline it also prints a per-benchmark speedup table against an
// earlier report and exits nonzero when any shared benchmark regressed
// more than -tolerance (fractional ns/op increase). A pair measured
// under different protocols (GOMAXPROCS, or a one-shot sub-millisecond
// timing) is reported but never gated.
//
// With -history it reads no stdin at all: it aggregates the committed
// BENCH_*.json reports (the positional arguments, or every BENCH_*.json
// in the current directory) into a per-benchmark trajectory table —
// one column per report date, one row per benchmark, and the newest
// measurement's speedup against the benchmark's first appearance. A
// cell measured at a different GOMAXPROCS than that first appearance is
// marked "*" and never ranked:
//
//	benchjson -history
//	benchjson -history BENCH_2026-08-06.json BENCH_2026-08-08_fanout.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64  `json:"allocs_per_op,omitempty"`
}

// Report is the file-level envelope. Notes carries free-form context
// such as a before/after comparison against an earlier entry.
type Report struct {
	Date       string   `json:"date"`
	Commit     string   `json:"commit,omitempty"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Notes      string   `json:"notes,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkTable2-8  1  957000000 ns/op  12345 B/op  678 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		out      = flag.String("out", "", "output JSON path (default BENCH_<today>.json)")
		commit   = flag.String("commit", "", "git commit to record in the report")
		notes    = flag.String("notes", "", "free-form notes to embed in the report")
		baseline = flag.String("baseline", "", "earlier BENCH_*.json to compare against")
		tol      = flag.Float64("tolerance", 1.0,
			"fractional ns/op regression vs -baseline that fails the run "+
				"(generous by default: 1x-benchtime wall-clock numbers swing "+
				"with host load; tighten alongside longer -benchtime runs)")
		history = flag.Bool("history", false,
			"aggregate committed BENCH_*.json reports (args, or the current "+
				"directory's) into a per-benchmark trajectory table and exit")
	)
	flag.Parse()
	if *history {
		if err := runHistory(flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	path := *out
	if path == "" {
		path = "BENCH_" + time.Now().Format("2006-01-02") + ".json"
	}

	rep := Report{
		Date:      time.Now().Format("2006-01-02"),
		Commit:    *commit,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Notes:     *notes,
	}

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass-through
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		r := Result{Name: m[1], Procs: 1}
		if m[2] != "" {
			r.Procs, _ = strconv.Atoi(m[2])
		}
		r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if m[5] != "" {
			v, _ := strconv.ParseInt(m[5], 10, 64)
			r.BytesPerOp = &v
		}
		if m[6] != "" {
			v, _ := strconv.ParseInt(m[6], 10, 64)
			r.AllocsPerOp = &v
		}
		rep.Benchmarks = append(rep.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks to %s", len(rep.Benchmarks), path)

	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			log.Fatal(err)
		}
		table, regressed := compareBaseline(base, &rep, *tol)
		fmt.Print(table)
		if len(regressed) > 0 {
			log.Fatalf("%d benchmark(s) more than %.0f%% slower than %s: %s",
				len(regressed), *tol*100, *baseline, strings.Join(regressed, ", "))
		}
	}
}
