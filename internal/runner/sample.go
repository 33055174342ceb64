package runner

import (
	"context"
	"sync"

	"repro/internal/phase"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Sample phase: before the per-run execution starts, the orchestrator
// runs one cheap telemetry-only profile per distinct (workload, budgets,
// seed) among the sample-eligible pending configs, clusters each profile
// into a phase.Plan, and stamps the plan onto every member — so a
// 12-point P_Induce sweep pays one full-detail Isolation profile and
// twelve short sampled runs instead of twelve full-ROI runs. Configs
// that are not sample-eligible (multi-core modes, partitioning,
// telemetry collection, ...) and members of a failed profile simply stay
// on the full-ROI path; sampling never turns a runnable campaign into a
// failed one.
//
// Sampling is mutually exclusive with fan-out: a fan group simulates
// every point's full ROI and would ignore the plans. RunAll prefers
// sampling when both are requested.

// profileEvery picks the profiling telemetry interval for a ROI: about
// 64 intervals, floored so degenerate tiny ROIs still profile.
func profileEvery(roi uint64) uint64 {
	every := roi / 64
	if every < 1024 {
		every = 1024
	}
	return every
}

// profileConfig projects cfg onto its profiling pre-pass: the same
// workload, budgets and seed, but single-core Isolation mode with
// telemetry collection on and everything PInTE-specific stripped — so
// every point of a P_Induce sweep (and its baseline) projects onto the
// same profile and shares one plan.
func profileConfig(cfg sim.Config) sim.Config {
	p := cfg.Normalized()
	p.Mode = sim.Isolation
	p.PInduce = 0
	p.EngineSeed = 0
	p.TelemetryEvery = profileEvery(p.ROIInstrs)
	p.Sample = nil
	return p
}

// runSamplePhase builds o.plans — one *phase.Plan slot per config, nil
// where the config runs the full-ROI path. Profiles run concurrently
// under the campaign's worker budget (or as one shared-pool task each in
// pool mode, so profiling competes fairly with other tenants); each
// failure is logged and counted, and leaves its members unsampled.
func (o *Orchestrator) runSamplePhase(ctx context.Context, cfgs []sim.Config, pending []int, q *Queue) {
	o.plans = make([]*phase.Plan, len(cfgs))

	type group struct {
		profile sim.Config
		members []int
	}
	byKey := make(map[string]*group)
	var order []string
	for _, i := range pending {
		cfg := cfgs[i]
		if cfg.Streams == nil {
			cfg.Streams = o.opts.Streams
		}
		if !sim.SampleEligible(cfg) {
			continue
		}
		p := profileConfig(cfg)
		k, err := ConfigKey(p)
		if err != nil {
			continue // the per-run path surfaces the same error
		}
		g, ok := byKey[k]
		if !ok {
			g = &group{profile: p}
			byKey[k] = g
			order = append(order, k)
		}
		g.members = append(g.members, i)
	}
	if len(order) == 0 {
		return
	}

	if q != nil {
		var wg sync.WaitGroup
		for _, k := range order {
			g := byKey[k]
			wg.Add(1)
			q.Submit(func(shed bool) {
				defer wg.Done()
				if shed || ctx.Err() != nil {
					return // unprofiled members stay on the full path
				}
				o.runProfile(ctx, g.profile, g.members)
			})
		}
		wg.Wait()
		return
	}

	workers := o.opts.Workers
	if workers <= 0 || workers > len(order) {
		workers = len(order)
	}
	var wg sync.WaitGroup
	keysCh := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keysCh {
				o.runProfile(ctx, byKey[k].profile, byKey[k].members)
			}
		}()
	}
	for _, k := range order {
		if ctx.Err() != nil {
			break // unprofiled members stay on the full path
		}
		keysCh <- k
	}
	close(keysCh)
	wg.Wait()
}

// runProfile executes one telemetry-only profile, clusters it, and
// stamps the resulting plan on every member index. Any failure —
// simulation error, panic, or a series too short to cluster — leaves
// the members on the full-ROI path.
func (o *Orchestrator) runProfile(ctx context.Context, profile sim.Config, members []int) {
	telemetry.Phase.ProfileRuns.Add(1)
	rctx := ctx
	cancel := func() {}
	if o.opts.Timeout > 0 {
		rctx, cancel = context.WithTimeout(ctx, o.opts.Timeout)
	}
	res, err := safeCall(sim.RunContext, rctx, profile)
	cancel()
	var plan *phase.Plan
	if err == nil {
		plan, err = phase.Analyze(res.Telemetry, phase.Options{}, profile.Seed)
	}
	if err != nil {
		telemetry.Phase.ProfileFailures.Add(1)
		o.logf("sampling profile for %s (seed %d) failed; %d run(s) stay on the full-ROI path: %v",
			profile.Workload, profile.Seed, len(members), err)
		return
	}
	telemetry.Phase.PlansBuilt.Add(1)
	telemetry.Phase.PhasesFound.Add(int64(plan.Phases))
	o.logf("sampling plan for %s (seed %d): %s — %d run(s)",
		profile.Workload, profile.Seed, plan, len(members))
	for _, i := range members {
		o.plans[i] = plan
	}
}
