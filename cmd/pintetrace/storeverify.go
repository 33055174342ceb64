package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
)

// cmdStoreVerify is the result store's integrity gate: it proves that
// what the cache would serve is what the simulator would compute today.
//
// Two independent halves, each optional:
//
//   - goldens (-goldens <dir>): re-run the sim.GoldenConfigs matrix live
//     and compare WallTime-zeroed bytes against the committed golden
//     files — the same invariant TestGoldenDeterminism locks, runnable
//     against an installed binary without the test harness.
//
//   - store (-store <dir[,MiB]>): sample entries from a live store
//     (deterministically, under -seed), re-run each entry's embedded
//     config — through the simulator, or for a phase-sampled result
//     through a sampled campaign — and compare WallTime-zeroed bytes.
//     Each sampled entry's key is also recomputed from its config: a
//     mismatch means the store is serving a result under the wrong
//     address, which no amount of byte equality excuses.
//
// Any divergence is a non-zero exit: a store that fails verification
// was written by a different simulator than the fingerprint claims (or
// rotted on disk past the CRC's reach) and must not serve campaigns.
func cmdStoreVerify(ctx context.Context, args []string) {
	fs := flag.NewFlagSet("store-verify", flag.ExitOnError)
	storeFlag := fs.String("store", "", "result store to audit: dir[,MiB budget]")
	sample := fs.Int("sample", 16, "store entries to re-simulate (0 = every entry)")
	seed := fs.Uint64("seed", 1, "sampling seed (same seed, same entries)")
	goldens := fs.String("goldens", "", "golden directory to replay (e.g. internal/sim/testdata)")
	fs.Parse(args)
	if *storeFlag == "" && *goldens == "" {
		log.Fatal("store-verify: nothing to verify (need -store and/or -goldens)")
	}

	failures := 0
	if *goldens != "" {
		failures += verifyGoldens(ctx, *goldens)
	}
	if *storeFlag != "" {
		failures += verifyStore(ctx, *storeFlag, *sample, *seed)
	}
	if failures > 0 {
		log.Fatalf("store-verify: %d mismatch(es)", failures)
	}
	fmt.Println("store-verify: ok")
}

func verifyGoldens(ctx context.Context, dir string) (failures int) {
	cfgs := sim.GoldenConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if ctx.Err() != nil {
			log.Fatal(ctx.Err())
		}
		path := filepath.Join(dir, "golden_"+name+".json")
		want, err := os.ReadFile(path)
		if err != nil {
			log.Fatalf("store-verify: reading golden: %v", err)
		}
		res, err := sim.RunContext(ctx, cfgs[name])
		if err != nil {
			log.Fatalf("store-verify: golden %q failed to run: %v", name, err)
		}
		got, err := sim.GoldenBytes(res)
		if err != nil {
			log.Fatalf("store-verify: golden %q: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			failures++
			log.Printf("FAIL golden %q: live simulation diverged from %s", name, path)
			continue
		}
		fmt.Printf("ok   golden %q\n", name)
	}
	return failures
}

func verifyStore(ctx context.Context, spec string, sample int, seed uint64) (failures int) {
	dir, budget, err := store.ParseFlag(spec)
	if err != nil {
		log.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir, BudgetBytes: budget, Logf: log.Printf})
	if err != nil {
		log.Fatalf("store-verify: opening store: %v", err)
	}
	defer st.Close()

	keys := st.Keys()
	stats := st.Stats()
	if len(keys) == 0 {
		fmt.Printf("ok   store %s: empty under %s (nothing to verify)\n", dir, stats.Fingerprint)
		return 0
	}
	// Deterministic sample: a fixed seed audits the same entries on every
	// CI run, so a failure reproduces locally with the same flags.
	if sample > 0 && sample < len(keys) {
		rnd := rand.New(rand.NewSource(int64(seed)))
		perm := rnd.Perm(len(keys))[:sample]
		sort.Ints(perm)
		picked := make([]string, sample)
		for i, p := range perm {
			picked[i] = keys[p]
		}
		keys = picked
	}

	for _, key := range keys {
		if ctx.Err() != nil {
			log.Fatal(ctx.Err())
		}
		res, ok := st.Get(key)
		if !ok {
			failures++
			log.Printf("FAIL store %s: indexed entry unreadable", key[:12])
			continue
		}
		wantKey, err := runner.ConfigKey(res.Config)
		if err != nil {
			failures++
			log.Printf("FAIL store %s: cached config is unhashable: %v", key[:12], err)
			continue
		}
		if wantKey = runner.RecordKey(wantKey, res); wantKey != key {
			failures++
			log.Printf("FAIL store %s: entry filed under wrong key (config hashes to %s)", key[:12], wantKey[:12])
			continue
		}
		live, err := resimulate(ctx, res)
		if err != nil {
			failures++
			log.Printf("FAIL store %s: cached config no longer runs: %v", key[:12], err)
			continue
		}
		cachedB, err := sim.GoldenBytes(res)
		if err != nil {
			log.Fatalf("store-verify: %v", err)
		}
		liveB, err := sim.GoldenBytes(live)
		if err != nil {
			log.Fatalf("store-verify: %v", err)
		}
		if !bytes.Equal(cachedB, liveB) {
			failures++
			log.Printf("FAIL store %s: cached result diverges from live simulation (%s %s p=%g seed=%d)",
				key[:12], res.Config.Mode, res.Config.Workload, res.Config.PInduce, res.Config.Seed)
			continue
		}
		fmt.Printf("ok   store %s (%s %s)\n", key[:12], res.Config.Mode, res.Config.Workload)
	}
	fmt.Printf("store %s: %d of %d entries verified under %s\n", dir, len(keys), stats.Entries, stats.Fingerprint)
	return failures
}

// resimulate recomputes a stored result live: a full-fidelity one
// through the simulator, a phase-sampled one through a sampled campaign
// of its config alone — its plan depends only on the config's profile,
// so it is the plan the campaign that stored it used.
func resimulate(ctx context.Context, res *sim.Result) (*sim.Result, error) {
	if res.Sampled == nil {
		return sim.RunContext(ctx, res.Config)
	}
	out, err := runner.New(runner.Options{Workers: 1, Sample: true}).RunAll(ctx, []sim.Config{res.Config})
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out.Results[0], nil
}
