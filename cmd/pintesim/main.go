// Command pintesim runs a single simulation and prints its metrics.
//
// SIGINT/SIGTERM cancels the run; -timeout bounds its wall-clock time.
// With -result-store, the run is stored in (and, when already present,
// recalled from) a result store shared with pintesweep and pinted.
//
// Usage:
//
//	pintesim -workload 450.soplex
//	pintesim -workload 450.soplex -mode pinte -pinduce 0.3
//	pintesim -workload 450.soplex -mode 2nd-trace -adversary 470.lbm
//	pintesim -workload 450.soplex -timeout 2m -result-store runs.store
//	pintesim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// openResultStore opens the -result-store directory, or returns nil
// when the flag is empty. The store is the run's durable record, so a
// malformed flag or an unusable directory is fatal rather than a run
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
	return st
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pintesim: ")

	var (
		workload  = flag.String("workload", "", "benchmark preset name")
		mode      = flag.String("mode", "isolation", "isolation, pinte or 2nd-trace")
		adversary = flag.String("adversary", "", "co-runner preset (2nd-trace mode)")
		pinduce   = flag.Float64("pinduce", 0.1, "P_Induce (pinte mode)")
		policy    = flag.String("policy", "lru", "LLC replacement policy: lru, plru, nmru, rrip")
		inclusion = flag.String("inclusion", "no", "LLC inclusion: no, in, ex")
		prefetchC = flag.String("prefetch", "000", "prefetch permutation: 000, NN0, NNN, NNI")
		predictor = flag.String("branch", "hashed-perceptron", "branch predictor")
		warmup    = flag.Uint64("warmup", 200_000, "warm-up instructions")
		roi       = flag.Uint64("roi", 1_000_000, "region-of-interest instructions")
		sample    = flag.Uint64("sample", 50_000, "sampling interval in instructions")
		seed      = flag.Uint64("seed", 1, "random seed")
		list      = flag.Bool("list", false, "list benchmark presets and exit")
		samples   = flag.Bool("samples", false, "print per-interval samples")
		telem     = flag.Uint64("telemetry", 0, "collect telemetry every N instructions and print the interval series plus P_Induce audit (0 = off)")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited)")
		retries   = flag.Int("retries", 0, "retries if the run panics, times out or stalls (seed is perturbed)")
		backoff   = flag.Duration("backoff", 0, "base delay before each retry, doubled per attempt with jitter (0 = retry immediately)")
		stall     = flag.Duration("stall-grace", 0, "abandon the run this long after its deadline if it ignores cancellation (0 = wait forever)")
		replayMiB = flag.Int64("replay-cache", 0, "record/replay stream cache budget in MiB (0 = off); a single run only benefits when a co-runner rewinds, but the flag keeps pintesim flag-compatible with pintesweep")
		resStore  = flag.String("result-store", "", "durable cross-campaign result store: dir[,MiB budget]; a config already simulated by ANY past run of ANY binary sharing the directory is served from it instead of re-simulated (empty = off)")
	)
	profOpts := prof.Flags(nil)
	chaos := fault.Flag(nil)
	flag.Parse()

	if err := fault.Apply(*chaos); err != nil {
		log.Fatal(err)
	}
	if *list {
		for _, n := range trace.Names() {
			p := trace.MustLookup(n)
			fmt.Printf("%-16s %-9s %-11s footprint %8.1f KB\n",
				n, p.Spec.Suite, p.Spec.Class, float64(p.Spec.Footprint())/1024)
		}
		return
	}
	if *workload == "" {
		log.Fatal("missing -workload (use -list to see presets)")
	}

	cfg := sim.Config{
		Workload:       *workload,
		Adversary:      *adversary,
		PInduce:        *pinduce,
		Branch:         *predictor,
		WarmupInstrs:   *warmup,
		ROIInstrs:      *roi,
		SampleEvery:    *sample,
		TelemetryEvery: *telem,
		Seed:           *seed,
	}
	switch *mode {
	case "isolation":
		cfg.Mode = sim.Isolation
	case "pinte":
		cfg.Mode = sim.PInTE
	case "2nd-trace":
		cfg.Mode = sim.SecondTrace
		if *adversary == "" {
			log.Fatal("2nd-trace mode requires -adversary")
		}
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
	cfg.Hier.LLC.Policy = *policy
	incl, err := cache.ParseInclusion(*inclusion)
	if err != nil {
		log.Fatal(err)
	}
	cfg.Hier.Inclusion = incl
	cfg.Hier.Prefetch = *prefetchC

	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopProf, err := profOpts.Start()
	if err != nil {
		log.Fatal(err)
	}
	var streams trace.SourceProvider
	if *replayMiB > 0 {
		streams = replay.NewCache(*replayMiB << 20)
	}
	resultStore := openResultStore(*resStore)
	defer resultStore.Close()
	orc := runner.New(runner.Options{
		Workers:    1,
		Timeout:    *timeout,
		Retries:    *retries,
		Backoff:    *backoff,
		StallGrace: *stall,
		Logf:       log.Printf,
		Streams:    streams,
		Store:      resultStore,
	})
	out, err := orc.RunAll(ctx, []sim.Config{cfg})
	if perr := stopProf(); perr != nil {
		log.Print(perr) // profile flush failure shouldn't mask the run's outcome
	}
	if err != nil {
		log.Fatal(err)
	}
	if hard := out.HardFailures(); len(hard) > 0 {
		f := hard[0]
		if f.Stack != "" {
			log.Printf("run panicked; recovered stack:\n%s", f.Stack)
		}
		log.Fatal(f)
	}
	// A record-only failure still produced a result; report it below
	// after warning that storing it failed.
	for _, f := range out.RecordFailures() {
		log.Printf("warning: %v (result shown below was not stored)", f)
	}
	res := out.Results[0]
	if out.FromStore > 0 {
		fmt.Printf("(served from result store %s; wall time below is the original run's)\n", *resStore)
	}

	fmt.Printf("workload        %s (%s)\n", *workload, *mode)
	fmt.Printf("instructions    %d in %d cycles\n", res.Instrs, res.Cycles)
	fmt.Printf("IPC             %.4f\n", res.IPC)
	fmt.Printf("LLC miss rate   %.2f%%\n", 100*res.MissRate)
	fmt.Printf("AMAT            %.1f cycles\n", res.AMAT)
	fmt.Printf("contention rate %.2f%%\n", 100*res.ContentionRate)
	fmt.Printf("branch accuracy %.2f%%\n", 100*res.BranchAccuracy)
	fmt.Printf("LLC occupancy   %.1f%%\n", 100*res.OccupancyFrac)
	fmt.Printf("L2/LLC MPKI     %.2f / %.2f\n", res.L2MPKI, res.LLCMPKI)
	if res.Engine != nil {
		fmt.Printf("PInTE engine    accesses %d, trigger rate %.3f, invalidations %d\n",
			res.Engine.Accesses, res.Engine.TriggerRate(), res.Engine.Invalidations)
	}
	fmt.Printf("wall time       %s\n", res.WallTime.Round(0))

	if *samples {
		fmt.Println("\ninstrs       IPC      MR     AMAT   interf   theft   occ")
		for _, s := range res.Samples {
			fmt.Printf("%9d  %6.3f  %5.1f%%  %6.1f  %5.1f%%  %5.1f%%  %4.1f%%\n",
				s.Instrs, s.IPC, 100*s.MissRate, s.AMAT,
				100*s.InterferenceRate, 100*s.TheftRate, 100*s.OccupancyFrac)
		}
	}

	if res.Telemetry != nil {
		fmt.Printf("\ntelemetry (every %d instrs)\n", res.Telemetry.Every)
		fmt.Println("end_instrs     IPC   L1D-MPKI  L2-MPKI  LLC-MPKI   occ    eng-acc  trig   rate")
		for _, iv := range res.Telemetry.Intervals {
			fmt.Printf("%10d  %6.3f  %8.2f  %7.2f  %8.2f  %4.1f%%  %8d  %5d  %.3f\n",
				iv.EndInstrs, iv.IPC, iv.L1DMPKI, iv.L2MPKI, iv.LLCMPKI,
				100*iv.LLCOccupancyFrac, iv.EngineAccesses, iv.EngineTriggers,
				iv.TriggerRate())
		}
		if res.Engine != nil {
			acc, trig := res.Telemetry.TriggerTotals()
			aud := telemetry.NewAudit(cfg.PInduce, acc, trig, res.Telemetry)
			verdict := "CALIBRATED"
			if !aud.Calibrated {
				verdict = "OUT OF TOLERANCE"
			}
			fmt.Printf("\nP_Induce audit  configured %.4f, realized %.5f over %d accesses "+
				"(err %+.5f, z=%.2f, interval range [%.4f, %.4f]) — %s\n",
				aud.Configured, aud.Realized, aud.Accesses, aud.Error, aud.Z,
				aud.MinIntervalRate, aud.MaxIntervalRate, verdict)
		}
	}
}
