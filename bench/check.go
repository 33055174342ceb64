package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The committed references: testdata/digests.json holds, per workload
// and seed, the SHA-256 of the workload's WallTime-zeroed result JSON in
// canonical order; testdata/sampled-ref-seed<N>.json maps each
// sweep-sampled config key to its full-path IPC and LLC MPKI, and
// testdata/accuracy.json records how close sweep-sampled came to them.
// -regen rewrites all of them for seeds 1 and 2.
//
//go:embed testdata
var builtinTestdata embed.FS

// refSeeds are the seeds the committed references cover: 1 is the
// development seed, 2 the held-out seed.
var refSeeds = []uint64{1, 2}

type refs struct {
	digests  map[string]map[string]string
	sampled  map[uint64]map[string][2]float64
	accuracy map[string]accuracy // seed → sweep-sampled's committed accuracy
}

// loadRefs reads the references from dir, or from the built-in copy
// when dir is empty. Missing files mean no reference.
func loadRefs(dir string) (*refs, error) {
	var fsys fs.FS
	if dir == "" {
		sub, err := fs.Sub(builtinTestdata, "testdata")
		if err != nil {
			return nil, err
		}
		fsys = sub
	} else {
		fsys = os.DirFS(dir)
	}
	r := &refs{sampled: map[uint64]map[string][2]float64{}}
	if err := readJSON(fsys, "digests.json", &r.digests); err != nil {
		return nil, err
	}
	if err := readJSON(fsys, "accuracy.json", &r.accuracy); err != nil {
		return nil, err
	}
	for _, seed := range refSeeds {
		var m map[string][2]float64
		if err := readJSON(fsys, sampledRefName(seed), &m); err != nil {
			return nil, err
		}
		if m != nil {
			r.sampled[seed] = m
		}
	}
	return r, nil
}

func readJSON(fsys fs.FS, name string, v any) error {
	b, err := fs.ReadFile(fsys, name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("reference %s: %w", name, err)
	}
	return nil
}

func sampledRefName(seed uint64) string { return fmt.Sprintf("sampled-ref-seed%d.json", seed) }

func (r *refs) digest(workload string, seed uint64) (string, bool) {
	d, ok := r.digests[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// canonicalJSON is a result's JSON with its host wall time zeroed: the
// part of a result that must be byte-identical across paths and runs.
func canonicalJSON(r *sim.Result) ([]byte, error) {
	c := *r
	c.WallTime = 0
	return json.Marshal(&c)
}

// digestResults hashes results in order; a missing result hashes as
// null so it can never match a complete set.
func digestResults(rs []*sim.Result) (string, error) {
	h := sha256.New()
	for _, r := range rs {
		if r == nil {
			io.WriteString(h, "null\n")
			continue
		}
		b, err := canonicalJSON(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// fullResults runs cfgs on the exact full path — no sampling — with the
// replay cache and fan-out that the repository's gates prove
// byte-identical to plain per-run execution.
func fullResults(ctx context.Context, cfgs []sim.Config) ([]*sim.Result, error) {
	orc := runner.New(runner.Options{Workers: procs, Streams: replay.NewCache(replayBudget), Fanout: true})
	out, err := orc.RunAll(ctx, cfgs)
	if err != nil {
		return nil, err
	}
	if err := out.Err(); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// regenerate recomputes every committed reference for seeds 1 and 2:
// one rep of each workload for the digests, and the full-path results
// of sweep-sampled's configs for the accuracy references.
func regenerate(ctx context.Context, o options, log io.Writer) error {
	scratch := filepath.Join(o.workdir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(o.testdata, 0o755); err != nil {
		return err
	}
	digests := make(map[string]map[string]string)
	acc := make(map[string]accuracy)
	for _, seed := range refSeeds {
		s := strconv.FormatUint(seed, 10)
		var sampled []*sim.Result
		for _, name := range workloadNames {
			w, err := newWorkload(name, o.sizes, seed, scratch)
			if err != nil {
				return err
			}
			r, err := w.rep(ctx, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			if len(r.problems) > 0 || r.failed > 0 {
				return fmt.Errorf("%s seed %d: %d failed, problems: %v", name, seed, r.failed, r.problems)
			}
			if digests[name] == nil {
				digests[name] = make(map[string]string)
			}
			digests[name][s] = r.digest
			if name == wSweepSampled {
				sampled = r.results
			}
			fmt.Fprintf(log, "regen: %s seed %d digest %s\n", name, seed, short(r.digest))
		}
		if digests[wSweepFan][s] != digests[wSweepFull][s] {
			return fmt.Errorf("seed %d: sweep-fan results differ from sweep-full", seed)
		}
		cfgs := sampledConfigs(o.sizes, seed)
		res, err := fullResults(ctx, cfgs)
		if err != nil {
			return err
		}
		ref, err := accuracyRef(cfgs, res)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(o.testdata, sampledRefName(seed)), ref); err != nil {
			return err
		}
		a, problems := measureAccuracy(cfgs, sampled, ref, nil)
		if len(problems) > 0 {
			return fmt.Errorf("seed %d sampling accuracy: %v", seed, problems)
		}
		acc[s] = a
		fmt.Fprintf(log, "regen: sweep-sampled seed %d: IPC error up to %.2f%%, %.3f of %d pairs beyond their bound\n",
			seed, a.IPCErrMaxPct, a.BoundMissFrac, a.Pairs)
	}
	if err := writeJSON(filepath.Join(o.testdata, "accuracy.json"), acc); err != nil {
		return err
	}
	return writeJSON(filepath.Join(o.testdata, "digests.json"), digests)
}

// accuracyRef maps each config's key to its full-path IPC and LLC MPKI.
func accuracyRef(cfgs []sim.Config, res []*sim.Result) (map[string][2]float64, error) {
	ref := make(map[string][2]float64, len(cfgs))
	for i, c := range cfgs {
		k, err := runner.ConfigKey(c)
		if err != nil {
			return nil, err
		}
		ref[k] = [2]float64{res[i].IPC, res[i].LLCMPKI}
	}
	return ref, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
