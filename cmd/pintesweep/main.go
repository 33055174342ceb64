// Command pintesweep sweeps P_Induce for one or more workloads and emits
// a CSV of contention rate, weighted IPC, miss rate and AMAT per point —
// the raw material of a contention-sensitivity study.
//
// The sweep is fault tolerant: a run that fails (bad config, panic,
// per-run timeout) costs only its own row — every completed point is
// still emitted and the failures are reported on stderr with a non-zero
// exit. SIGINT/SIGTERM cancels the campaign cleanly. With -result-store,
// each completed run is stored before it is reported, and rerunning the
// same command picks an interrupted sweep up where it left off,
// re-running only the missing configs.
//
// With -progress the campaign logs periodic heartbeats (completed,
// failed, run rate, ETA) to stderr; the same live snapshot is served in
// the campaigns group of the "pinte" metrics tree (the "" slot) under
// -debug's /debug/vars endpoint.
//
// Usage:
//
//	pintesweep -workloads 450.soplex,433.milc
//	pintesweep -workloads all -points 0.01,0.1,0.5 > sweep.csv
//	pintesweep -workloads all -result-store sweep.store -timeout 5m > sweep.csv
//	pintesweep -workloads all -progress -debug localhost:6060 > sweep.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	pinte "repro/internal/core"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// openResultStore opens the -result-store directory, or returns nil
// when the flag is empty. The store is the sweep's durable record, so a
// malformed flag or an unusable directory is fatal rather than a sweep
// that silently goes unrecorded.
func openResultStore(spec string) *store.Store {
	if spec == "" {
		return nil
	}
	dir, budget, err := store.ParseFlag(spec)
	if err != nil {
		log.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, BudgetBytes: budget, Logf: log.Printf})
	if err != nil {
		log.Fatal(err)
	}
	s := st.Stats()
	log.Printf("result store %s: %d entries under %s (%d bytes)", dir, s.Entries, s.Fingerprint, s.Bytes)
	return st
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pintesweep: ")

	var (
		workloads = flag.String("workloads", "", "comma-separated presets, or \"all\"")
		points    = flag.String("points", "", "comma-separated P_Induce values (default: the paper's 12)")
		warmup    = flag.Uint64("warmup", 200_000, "warm-up instructions")
		roi       = flag.Uint64("roi", 1_000_000, "region-of-interest instructions")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-run wall-clock budget (0 = unlimited)")
		retries   = flag.Int("retries", 0, "retries for runs that panic, time out or stall (seed is perturbed)")
		backoff   = flag.Duration("backoff", 0, "base delay before each retry, doubled per attempt with jitter (0 = retry immediately)")
		stall     = flag.Duration("stall-grace", 0, "abandon a run this long after its deadline if it ignores cancellation (0 = wait forever)")
		progress  = flag.Bool("progress", false, "log periodic campaign heartbeats (completed/failed/rate/ETA) to stderr")
		progEvery = flag.Duration("progress-every", 2*time.Second, "heartbeat period when -progress is set")
		replayMiB = flag.Int64("replay-cache", 0, "record/replay stream cache budget in MiB: each workload stream is generated once and replayed across all its sweep points (0 = off, regenerate per run)")
		fanout    = flag.Bool("fanout", true, "run sweep points sharing a (workload, seed) stream as one group: points that differ only below the L2 share one trace decode and front-end pass (results are byte-identical; failed points fall back to per-run execution)")
		sample    = flag.Bool("sample", false, "phase-aware representative sampling: profile each workload once, cluster its execution phases, and simulate only one representative window per phase (approximate — extrapolated metrics carry error bounds; overrides -fanout)")
		resStore  = flag.String("result-store", "", "durable cross-campaign result store: dir[,MiB budget]; configs already simulated by ANY past run of ANY binary sharing the directory are served from it instead of re-simulated (empty = off)")
	)
	profOpts := prof.Flags(nil)
	chaos := fault.Flag(nil)
	flag.Parse()

	if err := fault.Apply(*chaos); err != nil {
		log.Fatal(err)
	}
	if *workloads == "" {
		log.Fatal("missing -workloads (comma-separated, or \"all\")")
	}
	var names []string
	if *workloads == "all" {
		names = trace.Names()
	} else {
		names = strings.Split(*workloads, ",")
	}
	sweep := pinte.DefaultSweep()
	if *points != "" {
		sweep = nil
		for _, tok := range strings.Split(*points, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				log.Fatalf("bad -points value %q: %v", tok, err)
			}
			sweep = append(sweep, v)
		}
	}

	// Isolation baselines first, then the sweep grid — via the shared
	// campaign spec, so the CLI and the pinted service expand the exact
	// same submission to the exact same config list (and store keys).
	spec := server.SweepSpec{
		Workloads: names, Points: sweep,
		WarmupInstrs: *warmup, ROIInstrs: *roi, Seed: *seed,
		Sample: *sample,
	}
	cfgs := spec.Configs()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	heartbeat := time.Duration(0)
	if *progress {
		heartbeat = *progEvery
	}
	var streams trace.SourceProvider
	var streamCache *replay.Cache
	if *replayMiB > 0 {
		streamCache = replay.NewCache(*replayMiB << 20)
		streams = streamCache
	}
	resultStore := openResultStore(*resStore)
	defer resultStore.Close()
	orc := runner.New(runner.Options{
		Workers:    *workers,
		Timeout:    *timeout,
		Retries:    *retries,
		Backoff:    *backoff,
		StallGrace: *stall,
		Logf:       log.Printf,
		Progress:   heartbeat,
		Streams:    streams,
		Fanout:     *fanout && !*sample, // sampling supersedes fan-out; don't warn on the default
		Sample:     *sample,
		Store:      resultStore,
	})
	stopProf, err := profOpts.Start()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	out, err := orc.RunAll(ctx, cfgs)
	if perr := stopProf(); perr != nil {
		log.Print(perr) // profile flush failure shouldn't mask the sweep's outcome
	}
	if err != nil {
		log.Fatal(err) // campaign-level fault
	}
	if streamCache != nil && *progress {
		log.Printf("%s", streamCache.Snapshot())
	}
	if *sample {
		ph := telemetry.PhaseSnapshot()
		if tot := ph["instrs_simulated"] + ph["instrs_skipped"]; tot > 0 {
			log.Printf("sampling: %d plans over %d profile(s); %d of %d instrs simulated in detail (%.1fx cut); %d fallback(s) to full-ROI runs",
				ph["plans_built"], ph["profile_runs"], ph["instrs_simulated"], tot,
				float64(tot)/float64(ph["instrs_simulated"]), ph["sampled_fallbacks"])
		}
	}
	if fault.Enabled() {
		log.Printf("%s", fault.Summary())
	}
	results := out.Results

	isoIPC := make(map[string]float64, len(names))
	for i, w := range names {
		if results[i] != nil {
			isoIPC[w] = results[i].IPC
		}
	}

	cw := csv.NewWriter(os.Stdout)
	if err := cw.Write([]string{
		"workload", "p_induce", "contention_rate", "ipc", "weighted_ipc",
		"llc_miss_rate", "amat", "occupancy_frac",
		"realized_p_induce", "p_induce_err",
	}); err != nil {
		log.Fatal(err)
	}
	emitted := 0
	i := len(names)
	for _, w := range names {
		for _, p := range sweep {
			r := results[i]
			i++
			if r == nil {
				continue // failed run: reported below, row withheld
			}
			wipc := 0.0
			if isoIPC[w] > 0 {
				wipc = r.IPC / isoIPC[w]
			}
			// P_Induce audit columns: what the engine actually rolled
			// versus what the config asked for.
			realized, perr := 0.0, 0.0
			if r.Engine != nil {
				realized = r.Engine.TriggerRate()
				perr = realized - p
			}
			rec := []string{
				w,
				fmt.Sprintf("%.4f", p),
				fmt.Sprintf("%.5f", r.ContentionRate),
				fmt.Sprintf("%.5f", r.IPC),
				fmt.Sprintf("%.5f", wipc),
				fmt.Sprintf("%.5f", r.MissRate),
				fmt.Sprintf("%.3f", r.AMAT),
				fmt.Sprintf("%.4f", r.OccupancyFrac),
				fmt.Sprintf("%.5f", realized),
				fmt.Sprintf("%+.5f", perr),
			}
			if err := cw.Write(rec); err != nil {
				log.Fatal(err)
			}
			emitted++
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		log.Fatal(err)
	}

	// Record-only failures kept their results (rows above are complete);
	// warn but don't fail the sweep. Hard failures cost rows: exit 1.
	if rf := out.RecordFailures(); len(rf) > 0 {
		log.Printf("warning: %d results were computed but could not be stored; "+
			"the CSV is complete but a rerun would compute them again", len(rf))
		for _, f := range rf {
			log.Printf("  %v", f)
		}
	}
	if hard := out.HardFailures(); len(hard) > 0 {
		log.Printf("%d of %d runs failed (%d rows emitted, %d served from the store, wall %s):",
			len(hard), len(cfgs), emitted, out.FromStore,
			time.Since(start).Round(time.Millisecond))
		for _, f := range hard {
			log.Printf("  %v", f)
		}
		if resultStore != nil {
			log.Printf("completed runs are stored; rerun the same command to finish the sweep")
		}
		os.Exit(1)
	}
}
