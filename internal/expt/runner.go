package expt

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/replay"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// replayBudget bounds the per-runner stream cache. The full 49-workload
// scale records 49 primary streams of a few MiB each at paper scale, so
// 1 GiB comfortably holds a complete campaign while still bounding a
// pathological spec set.
const replayBudget = 1 << 30

// Runner executes simulations for the experiment generators, memoizing
// results so experiments that share runs (the PInTE sweep feeds Table II,
// Fig 6, Fig 7, Fig 8 and Fig 9) pay for them once. The memo is keyed
// by runner.ConfigKey, the config identity the result store also uses,
// so two configs share an entry exactly when they would produce the same
// result. Batches go through the fault-tolerant orchestrator
// (internal/runner), so one crashing simulation surfaces as a structured
// error instead of killing the process, and cancelling the runner's
// context (SIGINT in pintereport) stops a campaign between runs. Safe
// for concurrent use.
//
// Runs additionally share a stream record/replay cache: every config
// that reuses a (workload, seed) pair — all twelve P_Induce points of a
// sweep, every rerun of the stability study, every co-run of the same
// adversary — replays one recorded instruction stream instead of
// re-executing the synthetic generator. Replayed results are
// byte-identical to generated ones, so memoized values are unaffected.
type Runner struct {
	Scale Scale
	// Streams is the campaign-wide record/replay cache handed to every
	// run; set it to nil to regenerate streams per run.
	Streams trace.SourceProvider
	// Store, when non-nil, is the durable cross-campaign result store:
	// the in-process memo becomes a warm layer over it — memo misses
	// consult (and batch completions populate) the store through the
	// orchestrator, so a repeated experiment costs nothing even across
	// process restarts. Memo traffic is counted in the metrics tree's
	// store group beside the store's own counters.
	Store *store.Store

	ctx  context.Context
	mu   sync.Mutex
	memo map[string]*sim.Result
}

// NewRunner builds a runner for scale.
func NewRunner(s Scale) *Runner {
	return &Runner{
		Scale:   s,
		Streams: replay.NewCache(replayBudget),
		ctx:     context.Background(),
		memo:    make(map[string]*sim.Result),
	}
}

// WithContext returns the runner bound to ctx: cancellation aborts any
// in-flight batch with sim.ErrCanceled. The memo is shared with the
// receiver.
func (r *Runner) WithContext(ctx context.Context) *Runner {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ctx = ctx
	return r
}

// base stamps the scale's budgets onto cfg.
func (r *Runner) base(cfg sim.Config) sim.Config {
	if cfg.WarmupInstrs == 0 {
		cfg.WarmupInstrs = r.Scale.Warmup
	}
	if cfg.ROIInstrs == 0 {
		cfg.ROIInstrs = r.Scale.ROI
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = r.Scale.SampleEvery
	}
	if cfg.Seed == 0 {
		cfg.Seed = r.Scale.Seed
	}
	return cfg
}

// Iso returns the isolation configuration for workload w.
func (r *Runner) Iso(w string) sim.Config {
	return r.base(sim.Config{Mode: sim.Isolation, Workload: w})
}

// Pinte returns the PInTE configuration for workload w at p.
func (r *Runner) Pinte(w string, p float64) sim.Config {
	return r.base(sim.Config{Mode: sim.PInTE, Workload: w, PInduce: p})
}

// PinteSeeded is Pinte with an explicit engine seed: the workload stream
// stays identical and only the injection events move (the Fig 3 rerun
// study).
func (r *Runner) PinteSeeded(w string, p float64, engineSeed uint64) sim.Config {
	cfg := r.Pinte(w, p)
	cfg.EngineSeed = engineSeed
	return cfg
}

// Second returns the 2nd-Trace configuration co-running w with adv.
func (r *Runner) Second(w, adv string) sim.Config {
	return r.base(sim.Config{Mode: sim.SecondTrace, Workload: w, Adversary: adv})
}

// Get runs (or recalls) one configuration.
func (r *Runner) Get(cfg sim.Config) (*sim.Result, error) {
	res, err := r.GetAll([]sim.Config{cfg})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// GetAll runs (or recalls) a batch, executing missing configurations in
// parallel, and returns results in input order.
func (r *Runner) GetAll(cfgs []sim.Config) ([]*sim.Result, error) {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		k, err := runner.ConfigKey(cfg)
		if err != nil {
			return nil, fmt.Errorf("%w: unhashable: %v", sim.ErrBadConfig, err)
		}
		keys[i] = k
	}
	var missing []sim.Config
	var missingIdx []int
	r.mu.Lock()
	seen := make(map[string]bool)
	for i, cfg := range cfgs {
		k := keys[i]
		if r.memo[k] != nil {
			telemetry.StoreC.MemoHits.Add(1)
			continue
		}
		telemetry.StoreC.MemoMisses.Add(1)
		if !seen[k] {
			seen[k] = true
			missing = append(missing, cfg)
			missingIdx = append(missingIdx, i)
		}
	}
	r.mu.Unlock()

	if len(missing) > 0 {
		r.mu.Lock()
		ctx := r.ctx
		r.mu.Unlock()
		// Fan-out is always on for experiment batches: a sweep's points
		// share one decode pass, results are byte-identical, and any
		// in-group failure falls back to the per-run path below.
		orc := runner.New(runner.Options{Workers: r.Scale.Workers, Streams: r.Streams, Fanout: true, Store: r.Store})
		out, err := orc.RunAll(ctx, missing)
		if err != nil {
			return nil, err
		}
		// Memoize the successes even when some runs failed, so a
		// retried experiment only pays for the missing work.
		r.mu.Lock()
		for j, res := range out.Results {
			if res != nil {
				r.memo[keys[missingIdx[j]]] = res
			}
		}
		r.mu.Unlock()
		if err := out.Err(); err != nil {
			return nil, err
		}
	}

	out := make([]*sim.Result, len(cfgs))
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, k := range keys {
		res := r.memo[k]
		if res == nil {
			return nil, fmt.Errorf("expt: missing result for %s", k)
		}
		out[i] = res
	}
	return out, nil
}

// IsolationAll returns isolation results for every scale workload,
// indexed by name.
func (r *Runner) IsolationAll() (map[string]*sim.Result, error) {
	cfgs := make([]sim.Config, len(r.Scale.Workloads))
	for i, w := range r.Scale.Workloads {
		cfgs[i] = r.Iso(w)
	}
	res, err := r.GetAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*sim.Result, len(res))
	for i, w := range r.Scale.Workloads {
		out[w] = res[i]
	}
	return out, nil
}

// SweepAll returns PInTE results for every (workload, P_Induce) pair in
// the scale, keyed by workload.
func (r *Runner) SweepAll() (map[string][]*sim.Result, error) {
	var cfgs []sim.Config
	for _, w := range r.Scale.Workloads {
		for _, p := range r.Scale.Sweep {
			cfgs = append(cfgs, r.Pinte(w, p))
		}
	}
	res, err := r.GetAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*sim.Result, len(r.Scale.Workloads))
	i := 0
	for _, w := range r.Scale.Workloads {
		out[w] = res[i : i+len(r.Scale.Sweep)]
		i += len(r.Scale.Sweep)
	}
	return out, nil
}

// PairsAll returns 2nd-Trace results for every workload against its
// scale-assigned adversaries, keyed by workload.
func (r *Runner) PairsAll() (map[string][]*sim.Result, error) {
	var cfgs []sim.Config
	counts := make([]int, len(r.Scale.Workloads))
	for i, w := range r.Scale.Workloads {
		advs := r.Scale.Adversaries(w)
		counts[i] = len(advs)
		for _, a := range advs {
			cfgs = append(cfgs, r.Second(w, a))
		}
	}
	res, err := r.GetAll(cfgs)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*sim.Result, len(r.Scale.Workloads))
	i := 0
	for k, w := range r.Scale.Workloads {
		out[w] = res[i : i+counts[k]]
		i += counts[k]
	}
	return out, nil
}
