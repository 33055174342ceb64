package runner

import (
	"repro/internal/phase"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Profiles: the orchestrator runs one cheap telemetry-only profile per
// profile group — the distinct (workload, budgets, seed) projections
// the planner found among the sample-eligible configs (planSample) —
// clusters each profile into a phase.Plan, and stamps the plan onto
// every member, so a 12-point P_Induce sweep pays one full-detail
// Isolation profile and twelve short sampled runs instead of twelve
// full-ROI runs. A group's members are runnable once its profile has
// ended and run ahead of further profiles (sched.go), so the campaign
// advances group by group and each group's recorded stream can be
// released after its last reader (streams.go). Configs that are not
// sample-eligible (multi-core modes, partitioning, telemetry collection,
// ...) and members of a failed or shed profile simply stay on the
// full-ROI path; sampling never turns a runnable campaign into a failed
// one.

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
	// About 64 intervals, floored so degenerate tiny ROIs still profile.
	p.TelemetryEvery = max(p.ROIInstrs/64, 1024)
	p.Sample = nil
	return p
}

// analyzeProfile clusters a profile run's telemetry into a plan.
func analyzeProfile(profile *sim.Result, seed uint64) (*phase.Plan, error) {
	return phase.Analyze(profile.Telemetry, seed)
}

// profile runs the telemetry-only profile the planner projected for one
// profile group, clusters it, and stamps the resulting plan on every
// member. Any failure — simulation error, panic, or a series too short
// to cluster — is logged and counted, and leaves the members on the
// full-ROI path.
func (c *campaign) profile(members []int) {
	o := c.o
	profile := c.profiles[c.pts[members[0]].group]
	telemetry.Phase.ProfileRuns.Add(1)
	rctx, cancel := c.withTimeout(1)
	res, err := safeCall(sim.RunContext, rctx, profile)
	cancel()
	var plan *phase.Plan
	if err == nil {
		plan, err = o.analyze(res, profile.Seed)
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
		c.pts[i].plan = plan
	}
}
