package main

import (
	"bytes"
	"context"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestLayerForFoldsPackages(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).Access":                "cache",
		"repro/internal/replacement.(*LRU).Touch":             "cache",
		"repro/internal/prefetch.(*IPStride).Train":           "cache",
		"repro/internal/partition.(*UMON).Observe":            "cache",
		"repro/internal/branch.(*Perceptron).Predict":         "cpu",
		"repro/internal/cpu.(*Core).stepBatched":              "cpu",
		"repro/internal/core.(*Engine).OnAccess":              "core",
		"repro/internal/dram.(*DRAM).Access":                  "dram",
		"repro/internal/trace.(*Generator).NextBatch":         "trace",
		"repro/internal/replay.(*Replayer).NextBatch":         "replay",
		"repro/internal/sim.RunContext.func3":                 "sim",
		"repro/internal/phase.kmeans":                         "phase",
		"repro/internal/runner.(*Orchestrator).execOne":       "runner",
		"repro/internal/store.(*Store).Put":                   "store",
		"repro/internal/server.(*Server).admit":               "server",
		"runtime.mallocgc":                                    "runtime",
		"repro/internal/telemetry.(*Collector).Record":        "other",
		"encoding/json.(*encodeState).marshal":                "other",
		"syscall.Syscall6":                                    "other",
		"repro/internal/cache.setOps[go.shape.uint64].hit":    "cache",
		"repro/internal/cache.F[repro/internal/trace.Record]": "cache",
	} {
		if got := layerFor(fn); got != want {
			t.Errorf("layerFor(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldProfileOfSimulation folds a real CPU profile of simulator work
// run under a stage label.
func TestFoldProfileOfSimulation(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("stage", "campaign"), func(ctx context.Context) {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			if _, err := sim.RunContext(ctx, sim.Config{Workload: "450.soplex", WarmupInstrs: 10_000, ROIInstrs: 100_000, Seed: 1}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	pprof.StopCPUProfile()
	f, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.Total <= 0 {
		t.Fatal("folded profile has no CPU time")
	}
	known := make(map[string]bool)
	for _, l := range layers {
		known[l] = true
	}
	var sum float64
	for l, s := range f.Layers {
		if !known[l] {
			t.Errorf("fold produced unknown layer %q", l)
		}
		sum += s
	}
	if d := sum - f.Total; d > 1e-9 || d < -1e-9 {
		t.Errorf("layers sum to %v, total is %v", sum, f.Total)
	}
	if f.Stages["campaign"] <= 0 {
		t.Errorf("no CPU time under the campaign stage label: %v", f.Stages)
	}
	if f.Layers["cache"] <= 0 {
		t.Errorf("no CPU time in the cache layer of an LLC-bound run: %v", f.Layers)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Fatal("folding garbage succeeded")
	}
}
