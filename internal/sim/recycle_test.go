package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/replacement"
	"repro/internal/trace"
)

// shapeShifters are short runs that leave every recycled array behind in
// another shape: each replacement policy on the default and on a smaller
// LLC, inclusive and exclusive hierarchies, and prefetchers. A golden run
// after them builds its machine from memory that last held a different
// machine.
func shapeShifters() []Config {
	base := Config{Mode: PInTE, Workload: "433.milc", PInduce: 0.5,
		WarmupInstrs: 5_000, ROIInstrs: 20_000, SampleEvery: 10_000, Seed: 5}
	var out []Config
	for _, pol := range replacement.Names() {
		c := base
		c.Hier.L2.Policy = pol
		c.Hier.LLC.Policy = pol
		out = append(out, c)
		c.Hier.LLC = cache.LevelConfig{SizeBytes: 2 << 20, Ways: 8, HitLatency: 30, Policy: pol}
		out = append(out, c)
	}
	for _, incl := range []cache.Inclusion{cache.Inclusive, cache.Exclusive} {
		c := base
		c.Hier.Inclusion = incl
		c.Hier.Prefetch = "NNI"
		out = append(out, c)
	}
	return out
}

// TestRecycledRunsMatchGoldens runs the golden matrix twice in one
// process, interleaved with runs of other machine shapes, so every golden
// run after the first draws arrays another shape used. Recycling must
// never show in a result: every run stays byte-identical to its golden.
func TestRecycledRunsMatchGoldens(t *testing.T) {
	shifters := shapeShifters()
	for pass := 0; pass < 2; pass++ {
		for name, cfg := range goldenConfigs() {
			for _, s := range shifters {
				if _, err := Run(s); err != nil {
					t.Fatalf("shape-shifting run %s/%s: %v", s.Hier.LLC.Policy, s.Hier.Inclusion, err)
				}
			}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(goldenBytes(t, res), want) {
				t.Fatalf("pass %d: recycled run of %q diverged from its golden", pass, name)
			}
		}
	}
}

// TestRunRecyclesMachine bounds what one steady-state run of the default
// machine allocates. Built from fresh heap, the §III-A hierarchy alone is
// about 1.7 MiB per run; recycled, a run allocates only its small
// per-run state and its result.
func TestRunRecyclesMachine(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a share of released arrays under the race detector")
	}
	cfg := Config{Workload: "450.soplex", Seed: 1}
	if _, err := Run(cfg); err != nil { // fill the pools
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes allocated per run", perRun)
	if perRun >= 256<<10 {
		t.Fatalf("a steady-state run allocated %d bytes, want < 256 KiB: the machine is not being recycled", perRun)
	}
}

// TestResultDropsRuntimeWiring: a result never keeps its run's stream
// provider or sampling plan, so holding results does not hold a
// campaign's replay cache.
func TestResultDropsRuntimeWiring(t *testing.T) {
	cfg := tiny(Config{Workload: "450.soplex"})
	cfg.Streams = trace.Generate{}
	res := run(t, cfg)
	if res.Config.Streams != nil || res.Config.Sample != nil {
		t.Fatal("result config still carries run-time wiring")
	}
}
