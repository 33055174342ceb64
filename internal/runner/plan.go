package runner

import (
	"fmt"

	"repro/internal/phase"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The planner decides, before anything runs, which executor serves each
// config of a campaign and why. plan is pure: it simulates nothing,
// starts no goroutine and touches the store only through the admission
// func it is handed, so every routing rule is unit-testable with fakes.
// RunAll then executes the plan: store hits at once, the watchers on
// goroutines of their own, and every other executor through the
// campaign's scheduler (sched.go), where each profile group's members
// follow its profile and the per-run points follow the fan groups.
// A resumed config is simply a store hit.

// executor is the path that serves one config.
type executor uint8

const (
	// execFull runs the full-ROI simulator on the per-run stage.
	execFull executor = iota
	// execUnhashable has no config key; it fails up front.
	execUnhashable
	// execStore was a store hit at admission.
	execStore
	// execFlight is being computed by another campaign right now; a
	// watcher goroutine waits on that flight instead of taking a worker.
	execFlight
	// execSampled shares profile group entry.group and runs on the
	// per-run path under that profile's plan once the profile has ended
	// (full ROI if it fails).
	execSampled
	// execFan runs in fan-out group entry.group.
	execFan
)

// reason records why the planner chose an entry's executor.
type reason uint8

const (
	whyDefault          reason = iota // no fast path was requested
	whyUnhashable                     // ConfigKey failed
	whyStoreHit                       // stored under the current fingerprint
	whyInFlight                       // another campaign holds its flight
	whySubstituted                    // a test simulator: profiles and fan groups need the real one
	whySampleIneligible               // sim.SampleEligible refused it
	whyProfiled                       // sampled candidate
	whyFanSingleton                   // alone on its stream, or a chunk's leftover
	whyFanPartial                     // a stream-mate is stored or in flight
	whyFanned                         // fan-out group member
)

// entry is one config's place in the plan; group indexes the profile or
// fan group of a sampled or fanned entry.
type entry struct {
	exec  executor
	why   reason
	group int32
}

// point is one config's record in a campaign: what the planner and every
// executor read about it, each fact derived once, when RunAll builds the
// records (newPoints), or by the one stage that produces it.
type point struct {
	// cfg is the config as submitted, with Options.Streams stamped on
	// when it carries no stream provider of its own.
	cfg sim.Config
	// key is cfg's ConfigKey; "" marks an unhashable config.
	key string
	// eligible is sim.SampleEligible(cfg), derived in a sampled campaign
	// only.
	eligible bool
	// entry is the config's place in the plan.
	entry
	// stream indexes cfg's primary stream among the streams newPoints
	// names; -1 when the stream is unnamed (streams.go).
	stream int32
	// prior counts the config's failed fan-out in-group attempts, so a
	// point that dies inside a group re-enters the per-run retry/backoff
	// ladder at the next rung instead of retrying immediately.
	prior int
	// plan is a sampled candidate's plan once its profile ran; nil runs
	// the full ROI.
	plan *phase.Plan
}

// newPoints builds a campaign's records: each config's key and, in a
// sampled campaign, its sample eligibility, with Options.Streams stamped
// on. bad lists the unhashable configs' failures. When that provider
// can release streams (streams.go), refs names the primary stream of
// each config without a provider of its own.
func newPoints(cfgs []sim.Config, opts Options) (pts []point, refs *streamRefs, bad []*RunError) {
	pts = make([]point, len(cfgs))
	if rel, ok := opts.Streams.(streamReleaser); ok {
		refs = &streamRefs{rel: rel, index: make(map[streamKey]int32), fps: make(map[*trace.Spec]string)}
	}
	for i, cfg := range cfgs {
		p := &pts[i]
		p.cfg, p.stream = cfg, -1
		k, err := ConfigKey(cfg)
		if err != nil {
			bad = append(bad, &RunError{Index: i, Config: cfg,
				Err: fmt.Errorf("%w: unhashable: %v", sim.ErrBadConfig, err)})
			continue
		}
		if cfg.Streams == nil {
			p.cfg.Streams = opts.Streams
			if refs != nil {
				p.stream = refs.add(p.cfg)
			}
		}
		p.key, p.eligible = k, opts.Sample && sim.SampleEligible(p.cfg)
	}
	return pts, refs, bad
}

// plan gives every record exactly one entry and returns the profile
// config of each profile group. admit, nil without a store, is the
// admission-time store lookup of a hashable config: execStore for a hit
// (a resumed config included), execFlight for a config another campaign
// is computing, execFull otherwise. substituted is true when a test
// simulator replaces sim.RunContext: profiles and fan groups run the
// real simulator, so the plan then keeps every remaining config on the
// per-run stage. Sampling wins over fan-out when both are requested,
// because a fan group simulates every point's full ROI.
func plan(pts []point, admit func(int) executor, opts Options, substituted bool) (profiles []sim.Config) {
	for i := range pts {
		p := &pts[i]
		switch {
		case p.key == "":
			p.entry = entry{exec: execUnhashable, why: whyUnhashable}
		case admit != nil:
			switch p.exec = admit(i); p.exec {
			case execStore:
				p.why = whyStoreHit
			case execFlight:
				p.why = whyInFlight
			}
		}
	}
	switch {
	case substituted && (opts.Sample || opts.Fanout):
		for i := range pts {
			if pts[i].exec == execFull {
				pts[i].why = whySubstituted
			}
		}
	case opts.Sample:
		return planSample(pts)
	case opts.Fanout:
		planFan(pts, opts.FanMaxGroup)
	}
	return nil
}

// planSample makes every sample-eligible full entry a sampled candidate,
// grouped by its profile projection (profileConfig) so a P_Induce sweep
// and its baseline share one profile, and returns each group's profile
// config.
func planSample(pts []point) (profiles []sim.Config) {
	byKey := make(map[string]int32)
	for i := range pts {
		p := &pts[i]
		if p.exec != execFull {
			continue
		}
		if !p.eligible {
			p.why = whySampleIneligible
			continue
		}
		// The projection only zeroes fields of a config that has a key,
		// so it has one too.
		pc := profileConfig(p.cfg)
		k, _ := ConfigKey(pc)
		g, ok := byKey[k]
		if !ok {
			g = int32(len(profiles))
			byKey[k] = g
			profiles = append(profiles, pc)
		}
		p.entry = entry{exec: execSampled, why: whyProfiled, group: g}
	}
	return profiles
}

// planFan groups the full entries that share a primary record stream
// (sim.FanGroupKey) into fan-out groups. Keyed configs are grouped in
// input order; a group is fanned only when it has at least two members
// and every member is still to run, so a resumed campaign, or one
// sharing work with another, finishes on the per-run path rather than
// switching strategy mid-sweep. maxGroup >= 2 caps group size (load shedding): oversized
// groups are split into chunks of at most maxGroup points, and a
// leftover singleton stays on the per-run stage.
func planFan(pts []point, maxGroup int) {
	byKey := make(map[string][]int)
	var order []string
	for i := range pts {
		if pts[i].key == "" {
			continue
		}
		// The fan key only projects a config that has a key, so it
		// encodes too.
		k, _ := sim.FanGroupKey(pts[i].cfg)
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	var group int32
	for _, k := range order {
		g := byKey[k]
		why := whyFanSingleton
		if len(g) >= 2 {
			why = whyFanPartial
			whole := true
			for _, i := range g {
				whole = whole && pts[i].exec == execFull
			}
			for whole && len(g) >= 2 {
				n := len(g)
				if maxGroup >= 2 && n > maxGroup {
					n = maxGroup
				}
				for _, i := range g[:n] {
					pts[i].entry = entry{exec: execFan, why: whyFanned, group: group}
				}
				group++
				g = g[n:]
				why = whyFanSingleton
			}
		}
		for _, i := range g {
			if pts[i].exec == execFull {
				pts[i].why = why
			}
		}
	}
}

// groups lists the members of each group of executor x, in group order.
func groups(pts []point, x executor) [][]int {
	var gs [][]int
	for i := range pts {
		en := pts[i].entry
		if en.exec != x {
			continue
		}
		for int(en.group) >= len(gs) {
			gs = append(gs, nil)
		}
		gs[en.group] = append(gs[en.group], i)
	}
	return gs
}
