package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// replayBudget is the stream cache budget pintesweep's campaigns use.
const replayBudget = 512 << 20

// Set-up primes the simulator with one short isolation run per preset:
// code paths, heap arenas and the presets' generators are warm before
// the first timed rep, as they are for every campaign but a process's
// first.
const primeWarmup, primeROI = 5_000, 20_000

const (
	subsetPresets  = 8 // presets checked on seeds without a committed reference
	fanExtraRepeat = 3 // timings of each direct fan-out measurement
)

// sweep is a workload that runs one campaign per rep through the
// campaign orchestrator.
type sweep struct {
	name                   string
	cfgs                   []sim.Config
	replay, fanout, sample bool

	// acc is the sampling accuracy verify measured (sweep-sampled).
	acc accuracy
}

// accuracy is how far sampled results stray from the full path: the
// largest relative IPC error, and the fraction of (config, IPC or LLC
// MPKI) pairs whose error exceeds the bound the sampled run reported.
type accuracy struct {
	IPCErrMaxPct  float64 `json:"ipc_err_max_pct"`
	BoundMissFrac float64 `json:"bound_miss_frac"`
	Pairs         int     `json:"pairs"`
}

func newSweep(name string, cfgs []sim.Config, replay, fanout, sample bool) *sweep {
	return &sweep{name: name, cfgs: cfgs, replay: replay, fanout: fanout, sample: sample}
}

func (s *sweep) setup(ctx context.Context) error {
	for _, c := range s.cfgs {
		if err := c.Validate(); err != nil {
			return err
		}
		if _, err := runner.ConfigKey(c); err != nil {
			return err
		}
	}
	for _, w := range distinctPresets(s.cfgs) {
		cfg := sim.Config{Workload: w, WarmupInstrs: primeWarmup, ROIInstrs: primeROI, Seed: s.cfgs[0].Seed}
		if _, err := sim.RunContext(ctx, cfg); err != nil {
			return fmt.Errorf("priming %s: %w", w, err)
		}
	}
	return nil
}

func (s *sweep) rep(ctx context.Context, tr *tracer) (*repOut, error) {
	var rc *replay.Cache
	var streams trace.SourceProvider
	if s.replay {
		rc = replay.NewCache(replayBudget)
		streams = rc
	}
	var rt *readTimer
	if tr != nil {
		rt = &readTimer{}
		under := streams
		if under == nil {
			under = trace.Generate{}
		}
		streams = timedProvider{under: under, t: rt}
	}

	var mu sync.Mutex
	lat := make([]time.Duration, 0, len(s.cfgs))
	camp := tr.begin("runner.RunAll", s.name, -1)
	before := takeSnapshot()
	orc := runner.New(runner.Options{
		Workers: procs, Streams: streams, Fanout: s.fanout, Sample: s.sample,
		OnResult: func(_ int, key string, _ *sim.Result, _ bool) {
			d := time.Since(before.at)
			mu.Lock()
			lat = append(lat, d)
			mu.Unlock()
			tr.event("runner.OnResult", key, camp)
		},
	})
	out, err := orc.RunAll(ctx, s.cfgs)
	after := takeSnapshot()
	tr.end(camp)
	if err != nil {
		return nil, err
	}
	// Each result's config still points at this rep's stream cache and
	// sampling plan. Drop both, and replace the expvar view's hold on the
	// most recent cache with an empty one, so the kept results do not
	// keep every rep's recorded streams alive.
	for _, res := range out.Results {
		if res != nil {
			res.Config.Streams, res.Config.Sample = nil, nil
		}
	}
	if rc != nil {
		replay.NewCache(1)
	}
	r := &repOut{
		d: before.to(after), latencies: lat, results: out.Results,
		attempted: len(s.cfgs), nominal: nominalInstrs(s.cfgs),
	}
	ran, fromStore, failed := outcomeCounts(out)
	r.failed = failed
	if r.digest, err = digestResults(out.Results); err != nil {
		return nil, err
	}
	if s.fanout {
		if want := fanGroupCount(s.cfgs); r.d.fanGroups != int64(want) || r.d.fanFallbacks != 0 {
			r.problems = append(r.problems, fmt.Sprintf("fan-out formed %d groups with %d fallback points (want %d and 0)",
				r.d.fanGroups, r.d.fanFallbacks, want))
		}
	}
	if s.sample && r.d.sampledFallbacks != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d sampled runs fell back to the full path", r.d.sampledFallbacks))
	}

	r.layer = simLayer(out.Results, r.d.wall)
	r.pooled = map[string][]float64{"sim.run_s": resultWalls(out.Results)}
	l := r.layer
	if rt != nil {
		prefix := "trace."
		if s.replay {
			prefix = "replay."
		}
		l[prefix+"read_s"], l[prefix+"ns_per_record"] = rt.seconds(), rt.nsPerRecord()
	}
	if rc != nil {
		hits, misses, bytes := replayCounters(rc)
		l["replay.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		l["replay.bytes_mb"] = float64(bytes) / (1 << 20)
	}
	fanLayer(l, r.d)
	phaseLayer(l, r.d)
	if s.sample && len(lat) > 0 {
		l["phase.profile_wall_s"] = slices.Min(lat).Seconds()
	}
	l["runner.tail_s"] = tail(lat, r.d.wall, procs)
	l["runner.ran"], l["runner.from_store"] = float64(ran), float64(fromStore)
	return r, nil
}

// fanGroupCount is how many fan-out groups the orchestrator forms from
// cfgs: the FanGroupKey classes with at least two members.
func fanGroupCount(cfgs []sim.Config) int {
	n := make(map[string]int)
	for _, c := range cfgs {
		k, err := sim.FanGroupKey(c)
		if err == nil {
			n[k]++
		}
	}
	groups := 0
	for _, m := range n {
		if m >= 2 {
			groups++
		}
	}
	return groups
}

func (s *sweep) verify(ctx context.Context, reps []*repOut, ref *refs, seed uint64) []string {
	switch {
	case s.fanout:
		if _, ok := ref.digest(s.name, seed); ok {
			return nil // the committed digest equals sweep-full's (-regen checks)
		}
		// No committed digest: rerun the campaign on the exact per-run
		// path and demand byte-identical results.
		out, err := runner.New(runner.Options{Workers: procs}).RunAll(ctx, s.cfgs)
		if err == nil {
			err = out.Err()
		}
		if err != nil {
			return []string{fmt.Sprintf("per-run reference: %v", err)}
		}
		d, err := digestResults(out.Results)
		if err != nil {
			return []string{err.Error()}
		}
		if d != reps[0].digest {
			return []string{"fan-out results differ from the per-run path"}
		}
	case s.sample:
		return s.verifySampled(ctx, reps[0].results, ref, seed)
	}
	return nil
}

// verifySampled measures sampled IPC and LLC MPKI against the full
// path. On a seed with a committed reference it compares every config,
// and the accuracy must be no worse than the committed accuracy: speed
// bought with accuracy fails here. On other seeds it compares a
// seed-chosen subset of presets simulated in full now, and reports it.
func (s *sweep) verifySampled(ctx context.Context, res []*sim.Result, ref *refs, seed uint64) []string {
	full, ok := ref.sampled[seed]
	var idx []int
	if !ok {
		idx = subsetIndices(s.cfgs, seed)
		sub := make([]sim.Config, len(idx))
		for j, i := range idx {
			sub[j] = s.cfgs[i]
		}
		fr, err := fullResults(ctx, sub)
		if err != nil {
			return []string{fmt.Sprintf("full-path reference: %v", err)}
		}
		if full, err = accuracyRef(sub, fr); err != nil {
			return []string{err.Error()}
		}
	}
	var problems []string
	s.acc, problems = measureAccuracy(s.cfgs, res, full, idx)
	if want, ok := ref.accuracy[strconv.FormatUint(seed, 10)]; ok {
		if s.acc.IPCErrMaxPct > want.IPCErrMaxPct || s.acc.BoundMissFrac > want.BoundMissFrac {
			problems = append(problems, fmt.Sprintf("sampling accuracy regressed: IPC error up to %.2f%% (committed %.2f%%), %.3f of pairs beyond their bound (committed %.3f)",
				s.acc.IPCErrMaxPct, want.IPCErrMaxPct, s.acc.BoundMissFrac, want.BoundMissFrac))
		}
	}
	return problems
}

// measureAccuracy compares the sampled results at idx (every config
// when idx is nil) with full-path values keyed by config key.
func measureAccuracy(cfgs []sim.Config, res []*sim.Result, full map[string][2]float64, idx []int) (accuracy, []string) {
	if idx == nil {
		for i := range cfgs {
			idx = append(idx, i)
		}
	}
	var problems []string
	var maxErr float64
	misses, pairs := 0, 0
	for _, i := range idx {
		r := res[i]
		k, err := runner.ConfigKey(cfgs[i])
		if err != nil {
			return accuracy{}, []string{err.Error()}
		}
		want, ok := full[k]
		if !ok {
			problems = append(problems, fmt.Sprintf("no full-path reference for config %d", i))
			continue
		}
		if r == nil || r.Sampled == nil {
			problems = append(problems, fmt.Sprintf("config %d (%s) did not run sampled", i, cfgs[i].Workload))
			continue
		}
		ipcErr := relErr(r.IPC, want[0])
		maxErr = math.Max(maxErr, ipcErr)
		if ipcErr > r.Sampled.Bounds.IPCRel {
			misses++
		}
		if relErr(r.LLCMPKI, want[1]) > r.Sampled.Bounds.LLCMPKIRel {
			misses++
		}
		pairs += 2
	}
	return accuracy{IPCErrMaxPct: maxErr * 100, BoundMissFrac: ratio(float64(misses), float64(pairs)), Pairs: pairs}, problems
}

// relErr is |got-want|/|want|, or |got-want| when want is 0.
func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// subsetIndices picks subsetPresets consecutive presets from a
// seed-chosen start and returns the indices of each one's isolation
// config and of one seed-chosen PInTE config.
func subsetIndices(cfgs []sim.Config, seed uint64) []int {
	byPreset := make(map[string][]int)
	for i, c := range cfgs {
		byPreset[c.Workload] = append(byPreset[c.Workload], i)
	}
	presets := distinctPresets(cfgs)
	start := int(mix(seed) % uint64(len(presets)))
	var idx []int
	for j := 0; j < subsetPresets && j < len(presets); j++ {
		members := byPreset[presets[(start+j)%len(presets)]]
		idx = append(idx, members[0])
		if len(members) > 1 {
			idx = append(idx, members[1+int(mix(seed, uint64(j))%uint64(len(members)-1))])
		}
	}
	return idx
}

func (s *sweep) layers(ctx context.Context, reps []*repOut, tr *tracer, defs []metricDef) (map[string]float64, error) {
	lm := medianLayers(reps)
	runs := pooled(reps, "sim.run_s")
	lm["sim.run_s_p50"], lm["sim.run_s_p90"] = stats.Percentile(runs, 0.5), stats.Percentile(runs, 0.9)
	if s.sample {
		lm["phase.ipc_err_max_pct"], lm["phase.bound_miss_frac"] = s.acc.IPCErrMaxPct, s.acc.BoundMissFrac
	}
	if s.fanout {
		if err := s.fanExtras(ctx, reps[0], tr, lm); err != nil {
			return nil, err
		}
	}
	zeroMissing(lm, defs, "trace.", "replay.", "fan.", "phase.", "store.", "server.")
	return lm, nil
}

// fanExtras times the two fan-out executors directly on a warm replay
// cache: sim.RunFanGroup on a digest-eligible group (the first preset's
// isolation and PInTE points) and on the prefetching lockstep group,
// and the lockstep group's configs again through sim.RunContext on two
// workers — the per-run path lockstep competes with. Each group's
// results must equal the campaign's.
func (s *sweep) fanExtras(ctx context.Context, rep *repOut, tr *tracer, lm map[string]float64) error {
	var digestIdx, lockIdx []int
	first := s.cfgs[0].Workload
	for i, c := range s.cfgs {
		switch {
		case c.Workload == first && c.Mode != sim.SecondTrace && c.Hier.Prefetch == "":
			digestIdx = append(digestIdx, i)
		case c.Hier.Prefetch != "":
			lockIdx = append(lockIdx, i)
		}
	}
	rc := replay.NewCache(replayBudget)
	with := func(idx []int) []sim.Config {
		cfgs := make([]sim.Config, len(idx))
		for j, i := range idx {
			cfgs[j] = s.cfgs[i]
			cfgs[j].Streams = rc
		}
		return cfgs
	}
	// Record both streams before timing anything.
	for _, idx := range [][]int{digestIdx, lockIdx} {
		if _, err := sim.RunContext(ctx, with(idx)[0]); err != nil {
			return err
		}
	}
	group := func(name string, idx []int) (float64, error) {
		var ts []float64
		for k := 0; k < fanExtraRepeat; k++ {
			sp := tr.begin(name, s.name, -1)
			t0 := time.Now()
			pts := sim.RunFanGroup(ctx, with(idx), 0)
			ts = append(ts, time.Since(t0).Seconds())
			tr.end(sp)
			for j, pt := range pts {
				if pt.Err != nil {
					return 0, fmt.Errorf("%s point %d: %w", name, j, pt.Err)
				}
				if err := sameResult(pt.Res, rep.results[idx[j]]); err != nil {
					return 0, fmt.Errorf("%s point %d: %w", name, j, err)
				}
			}
		}
		return stats.Median(ts), nil
	}
	var err error
	if lm["fan.digest_group_s"], err = group("sim.RunFanGroup.digest", digestIdx); err != nil {
		return err
	}
	if lm["fan.lockstep_group_s"], err = group("sim.RunFanGroup.lockstep", lockIdx); err != nil {
		return err
	}
	var ts []float64
	for k := 0; k < fanExtraRepeat; k++ {
		sp := tr.begin("sim.RunContext.perrun", s.name, -1)
		t0 := time.Now()
		if err := runPerRun(ctx, with(lockIdx), rep, lockIdx); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
		tr.end(sp)
	}
	lm["fan.lockstep_vs_perrun"] = ratio(lm["fan.lockstep_group_s"], stats.Median(ts))
	return nil
}

// runPerRun runs cfgs through sim.RunContext on procs goroutines and
// checks each result against the campaign's.
func runPerRun(ctx context.Context, cfgs []sim.Config, rep *repOut, idx []int) error {
	errs := make([]error, len(cfgs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				res, err := sim.RunContext(ctx, cfgs[j])
				if err == nil {
					err = sameResult(res, rep.results[idx[j]])
				}
				errs[j] = err
			}
		}()
	}
	for j := range cfgs {
		next <- j
	}
	close(next)
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return fmt.Errorf("per-run config %d: %w", j, err)
		}
	}
	return nil
}

// sameResult reports whether two results are byte-identical apart from
// their wall time.
func sameResult(a, b *sim.Result) error {
	if a == nil || b == nil {
		return fmt.Errorf("missing result")
	}
	ja, err := canonicalJSON(a)
	if err != nil {
		return err
	}
	jb, err := canonicalJSON(b)
	if err != nil {
		return err
	}
	if string(ja) != string(jb) {
		return fmt.Errorf("result differs from the campaign's")
	}
	return nil
}

// simLayer computes the per-rep sim and runner values from a rep's
// results: host time per detailed instruction, Table I's cost ratios
// (mean wall time of PInTE and 2nd-Trace runs over isolation runs), and
// how busy the workers were.
func simLayer(rs []*sim.Result, wall time.Duration) map[string]float64 {
	var detailed uint64
	var busy time.Duration
	var sum [3]time.Duration
	var n [3]int
	for _, r := range rs {
		if r == nil {
			continue
		}
		busy += r.WallTime
		if r.Sampled != nil {
			detailed += r.Sampled.InstrsSimulated
		} else {
			detailed += r.Config.WarmupInstrs + r.Config.ROIInstrs
		}
		if m := int(r.Config.Mode); m >= 0 && m < 3 {
			sum[m] += r.WallTime
			n[m]++
		}
	}
	mean := func(m sim.Mode) float64 {
		return ratio(sum[m].Seconds(), float64(n[m]))
	}
	iso := mean(sim.Isolation)
	return map[string]float64{
		"sim.detailed_minstr_per_s":  ratio(float64(detailed)/1e6, busy.Seconds()),
		"sim.pinte_cost_ratio":       ratio(mean(sim.PInTE), iso),
		"sim.secondtrace_cost_ratio": ratio(mean(sim.SecondTrace), iso),
		"runner.utilization":         ratio(busy.Seconds(), wall.Seconds()*procs),
	}
}

func resultWalls(rs []*sim.Result) []float64 {
	out := make([]float64, 0, len(rs))
	for _, r := range rs {
		if r != nil {
			out = append(out, r.WallTime.Seconds())
		}
	}
	return out
}

// fanLayer fills the fan-out values of one rep from its counter deltas.
func fanLayer(l map[string]float64, d delta) {
	l["fan.points_per_decode"] = ratio(float64(d.fanPoints), float64(d.fanDecodes))
	l["fan.fallback_points"] = float64(d.fanFallbacks)
}

// phaseLayer fills the sampling values of one rep: profiles run, the
// instruction cut (nominal over detailed instructions of sampled runs)
// and sampled runs that fell back.
func phaseLayer(l map[string]float64, d delta) {
	l["phase.profile_runs"] = float64(d.profileRuns)
	l["phase.instr_cut"] = ratio(float64(d.instrsSimulated+d.instrsSkipped), float64(d.instrsSimulated))
	l["phase.sampled_fallbacks"] = float64(d.sampledFallbacks)
}

// tail is how long a rep ran with fewer results outstanding than
// workers: from the delivery that left workers-1 results to go, to the
// end of the rep.
func tail(lat []time.Duration, wall time.Duration, workers int) float64 {
	if len(lat) < workers {
		return wall.Seconds()
	}
	s := append([]time.Duration(nil), lat...)
	slices.Sort(s)
	return (wall - s[len(s)-workers]).Seconds()
}

// medianLayers takes, for every per-rep layer value, its median over
// the reps.
func medianLayers(reps []*repOut) map[string]float64 {
	vals := make(map[string][]float64)
	for _, r := range reps {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = stats.Median(v)
	}
	return out
}

// pooled gathers one layer sample set over every rep.
func pooled(reps []*repOut, name string) []float64 {
	var out []float64
	for _, r := range reps {
		out = append(out, r.pooled[name]...)
	}
	return out
}

// zeroMissing reports 0 for every per-layer metric of the given layers
// that the workload bypasses and so never measured (self CPU times come
// from the profile for every layer).
func zeroMissing(lm map[string]float64, defs []metricDef, prefixes ...string) {
	for _, def := range defs {
		if strings.HasSuffix(def.Name, ".self_cpu_s") {
			continue
		}
		for _, p := range prefixes {
			if _, ok := lm[def.Name]; !ok && strings.HasPrefix(def.Name, p) {
				lm[def.Name] = 0
			}
		}
	}
}
