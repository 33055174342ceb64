package repro_test

// One benchmark per paper table/figure: each regenerates its artifact at
// the "tiny" experiment scale per iteration, so `go test -bench=.`
// exercises the full reproduction pipeline and reports how long each
// artifact takes to rebuild. Ablation benches cover the design choices
// DESIGN.md stars.
//
// Run a single artifact:  go test -bench=BenchmarkTable2 -benchtime=1x
// Full sweep:             go test -bench=. -benchmem

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/expt"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchScale keeps per-iteration cost bounded; the memo cache is NOT
// shared across iterations (each gets a fresh runner) so timings reflect
// real simulation work.
func benchScale() expt.Scale {
	s := expt.Tiny()
	s.Warmup = 30_000
	s.ROI = 100_000
	s.SampleEvery = 20_000
	s.Reruns = 2
	s.Sweep = []float64{0.05, 0.5}
	s.Workloads = []string{"453.povray", "450.soplex", "470.lbm"}
	return s
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runner := expt.NewRunner(benchScale())
		tables, err := expt.RunExperiment(id, runner)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatalf("%s produced no tables", id)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }

// BenchmarkSimulatorThroughput measures raw single-core simulation speed
// (instructions per second ≈ 1/(ns per instruction × 1e-9)); the figure
// behind Table I's cost claims.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	const roi = 200_000
	for i := 0; i < b.N; i++ {
		_, err := sim.Run(sim.Config{
			Workload:     "403.gcc",
			WarmupInstrs: 1,
			ROIInstrs:    roi,
			SampleEvery:  roi,
			Seed:         uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(roi), "instrs/op")
}

// BenchmarkIsolationRun measures the end-to-end cost of the baseline
// isolation runs (Table I's "isolation" row) across the bench workload
// set — the single-core hot path (trace generation, core model, full
// hierarchy walk) with no engine or co-runner attached.
func BenchmarkIsolationRun(b *testing.B) {
	workloads := benchScale().Workloads
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, wl := range workloads {
			_, err := sim.Run(sim.Config{
				Workload:     wl,
				WarmupInstrs: 20_000,
				ROIInstrs:    100_000,
				SampleEvery:  100_000,
				Seed:         1,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkModeCosts compares per-mode simulation cost: the 2nd-Trace
// row of Table I is expected to run ≈2× the isolation row, PInTE ≈1×.
func BenchmarkModeCosts(b *testing.B) {
	modes := []struct {
		name string
		cfg  sim.Config
	}{
		{"Isolation", sim.Config{Workload: "433.milc"}},
		{"PInTE", sim.Config{Workload: "433.milc", Mode: sim.PInTE, PInduce: 0.3}},
		{"SecondTrace", sim.Config{Workload: "433.milc", Mode: sim.SecondTrace, Adversary: "470.lbm"}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := m.cfg
			cfg.WarmupInstrs = 20_000
			cfg.ROIInstrs = 100_000
			cfg.SampleEvery = 100_000
			cfg.Seed = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPolicyHook measures PInTE injection under each LLC
// replacement policy — the policy-agnostic hook ablation (DESIGN.md ★).
func BenchmarkAblationPolicyHook(b *testing.B) {
	for _, pol := range []string{"lru", "plru", "nmru", "rrip"} {
		b.Run(pol, func(b *testing.B) {
			cfg := sim.Config{
				Workload:     "450.soplex",
				Mode:         sim.PInTE,
				PInduce:      0.5,
				WarmupInstrs: 20_000,
				ROIInstrs:    100_000,
				SampleEvery:  100_000,
				Seed:         1,
			}
			cfg.Hier.LLC.Policy = pol
			b.ReportAllocs()
			var contention float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				contention = r.ContentionRate
			}
			b.ReportMetric(contention, "contention-rate")
		})
	}
}

// BenchmarkAblationMLP sweeps the core model's overlap factor — the
// interval-model ablation (DESIGN.md ★): contention sensitivity should be
// a property of the cache model, not of the chosen MLP.
func BenchmarkAblationMLP(b *testing.B) {
	for _, mlp := range []int{1, 2, 4, 8} {
		b.Run(string(rune('0'+mlp)), func(b *testing.B) {
			cfg := sim.Config{
				Workload:     "433.milc",
				Mode:         sim.PInTE,
				PInduce:      0.5,
				WarmupInstrs: 20_000,
				ROIInstrs:    100_000,
				SampleEvery:  100_000,
				Seed:         1,
			}
			cfg.CPU.MLP = mlp
			var ipc float64
			for i := 0; i < b.N; i++ {
				r, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				ipc = r.IPC
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// BenchmarkAblationSeeds reruns one PInTE configuration across engine
// seeds — the determinism/stability ablation (DESIGN.md ★). The reported
// metric is the spread of IPC across seeds within the iteration.
func BenchmarkAblationSeeds(b *testing.B) {
	b.ReportAllocs()
	var spread float64
	for i := 0; i < b.N; i++ {
		var lo, hi float64
		for s := uint64(1); s <= 4; s++ {
			r, err := sim.Run(sim.Config{
				Workload:     "450.soplex",
				Mode:         sim.PInTE,
				PInduce:      0.3,
				WarmupInstrs: 20_000,
				ROIInstrs:    80_000,
				SampleEvery:  80_000,
				Seed:         1,
				EngineSeed:   s,
			})
			if err != nil {
				b.Fatal(err)
			}
			if lo == 0 || r.IPC < lo {
				lo = r.IPC
			}
			if r.IPC > hi {
				hi = r.IPC
			}
		}
		spread = (hi - lo) / lo
	}
	b.ReportMetric(spread, "ipc-spread")
}

// BenchmarkSweepReplay quantifies the campaign-level record/replay cache
// (internal/replay): a 12-point single-workload P_Induce sweep run
// through the orchestrator with the stream cache off (every run
// regenerates its trace) versus on (the stream is recorded once and
// replayed for the other eleven points). The CacheOn case includes the
// one-time recording cost, so the ratio is the honest end-to-end
// campaign speedup.
func BenchmarkSweepReplay(b *testing.B) {
	sweepCfgs := func() []sim.Config {
		pts := []float64{0.005, 0.01, 0.025, 0.05, 0.075, 0.10,
			0.20, 0.30, 0.50, 0.70, 0.90, 1.0}
		cfgs := make([]sim.Config, 0, len(pts))
		for _, p := range pts {
			cfgs = append(cfgs, sim.Config{
				Workload:     "453.povray",
				Mode:         sim.PInTE,
				PInduce:      p,
				WarmupInstrs: 20_000,
				ROIInstrs:    500_000,
				SampleEvery:  500_000,
				Seed:         1,
			})
		}
		return cfgs
	}
	run := func(b *testing.B, streams trace.SourceProvider) {
		b.Helper()
		orc := runner.New(runner.Options{Workers: 1, Streams: streams})
		out, err := orc.RunAll(context.Background(), sweepCfgs())
		if err != nil {
			b.Fatal(err)
		}
		if hard := out.HardFailures(); len(hard) > 0 {
			b.Fatal(hard[0])
		}
	}
	b.Run("CacheOff", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("CacheOn", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh cache per iteration keeps the one-time recording
			// cost inside the measurement, as a real campaign pays it.
			run(b, replay.NewCache(512<<20))
		}
	})
}

// BenchmarkSweepFanout measures the one-decode fan-out executor on the
// same 12-point sweep as BenchmarkSweepReplay: the points share a
// (workload, seed) stream and differ only below the L2, so the fan
// phase decodes each replay chunk once and runs one front-end pass
// feeding twelve below-L2 followers. Compare against
// BenchmarkSweepReplay/CacheOn in the recorded baseline — same sweep,
// same stream cache, sequential execution — for the executor's own
// contribution. Every iteration checks the decode-sharing invariant via
// the fan-out telemetry: one group, twelve points, one decode pass.
func BenchmarkSweepFanout(b *testing.B) {
	pts := []float64{0.005, 0.01, 0.025, 0.05, 0.075, 0.10,
		0.20, 0.30, 0.50, 0.70, 0.90, 1.0}
	cfgs := make([]sim.Config, 0, len(pts))
	for _, p := range pts {
		cfgs = append(cfgs, sim.Config{
			Workload:     "453.povray",
			Mode:         sim.PInTE,
			PInduce:      p,
			WarmupInstrs: 20_000,
			ROIInstrs:    500_000,
			SampleEvery:  500_000,
			Seed:         1,
		})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		before := telemetry.FanoutSnapshot()
		// A fresh cache per iteration keeps the one-time recording
		// cost inside the measurement, as a real campaign pays it.
		orc := runner.New(runner.Options{
			Workers: 1, Streams: replay.NewCache(512 << 20), Fanout: true,
		})
		out, err := orc.RunAll(context.Background(), cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if hard := out.HardFailures(); len(hard) > 0 {
			b.Fatal(hard[0])
		}
		after := telemetry.FanoutSnapshot()
		if g, d := after["groups_formed"]-before["groups_formed"],
			after["decode_passes"]-before["decode_passes"]; g != 1 || d != 1 {
			b.Fatalf("decode sharing broken: %d groups, %d decode passes (want 1 and 1)", g, d)
		}
		if p := after["points_fanned"] - before["points_fanned"]; p != int64(len(cfgs)) {
			b.Fatalf("only %d of %d points fanned", p, len(cfgs))
		}
	}
}

// BenchmarkSweepWarmRestart measures the persistent result store's
// restart economics on the same 12-point sweep as BenchmarkSweepReplay:
// Cold runs the sweep against an empty store (and pays the store's
// append/fsync tax on every completion); Warm reopens the now-populated
// store directory from scratch — a different process start, cold OS
// caches for the index rebuild — and reruns the identical campaign,
// which must be served entirely from the store with zero simulations
// and byte-identical results. The Warm/Cold ratio is the headline
// never-simulate-the-same-config-twice speedup (target ≥10×).
func BenchmarkSweepWarmRestart(b *testing.B) {
	pts := []float64{0.005, 0.01, 0.025, 0.05, 0.075, 0.10,
		0.20, 0.30, 0.50, 0.70, 0.90, 1.0}
	cfgs := make([]sim.Config, 0, len(pts))
	for _, p := range pts {
		cfgs = append(cfgs, sim.Config{
			Workload:     "453.povray",
			Mode:         sim.PInTE,
			PInduce:      p,
			WarmupInstrs: 20_000,
			ROIInstrs:    500_000,
			SampleEvery:  500_000,
			Seed:         1,
		})
	}
	sweep := func(b *testing.B, dir string) *runner.Outcome {
		b.Helper()
		st, err := store.Open(store.Options{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		orc := runner.New(runner.Options{Workers: 1, Store: st})
		out, err := orc.RunAll(context.Background(), cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if hard := out.HardFailures(); len(hard) > 0 {
			b.Fatal(hard[0])
		}
		return out
	}
	fingerprints := func(b *testing.B, out *runner.Outcome) []string {
		b.Helper()
		fps := make([]string, len(out.Results))
		for i, r := range out.Results {
			rr := *r
			rr.WallTime = 0
			j, err := json.Marshal(&rr)
			if err != nil {
				b.Fatal(err)
			}
			fps[i] = string(j)
		}
		return fps
	}
	b.Run("Cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := sweep(b, b.TempDir())
			if out.Ran != len(cfgs) || out.FromStore != 0 {
				b.Fatalf("cold sweep ran %d, served %d from store (want %d and 0)",
					out.Ran, out.FromStore, len(cfgs))
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		dir := b.TempDir()
		cold := sweep(b, dir)
		want := fingerprints(b, cold)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out := sweep(b, dir) // reopen from disk: index rebuild included
			if out.Ran != 0 || out.FromStore != len(cfgs) {
				b.Fatalf("warm sweep ran %d, served %d from store (want 0 and %d)",
					out.Ran, out.FromStore, len(cfgs))
			}
			b.StopTimer()
			for j, fp := range fingerprints(b, out) {
				if fp != want[j] {
					b.Fatalf("warm result %d is not byte-identical to the cold run", j)
				}
			}
			b.StartTimer()
		}
	})
}

// Benches for this reproduction's beyond-the-paper experiments.

func BenchmarkExt(b *testing.B)          { benchExperiment(b, "ext") }
func BenchmarkCapacity(b *testing.B)     { benchExperiment(b, "capacity") }
func BenchmarkPartitioning(b *testing.B) { benchExperiment(b, "partitioning") }
