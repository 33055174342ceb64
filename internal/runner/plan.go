package runner

import (
	"repro/internal/sim"
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

// plan assigns every config exactly one executor. admit, nil without a
// store, is the admission-time store lookup of a hashable config:
// execStore for a hit (a resumed config included), execFlight for a
// config another campaign is computing, execFull otherwise. substituted is true when a
// test simulator replaces sim.RunContext: profiles and fan groups run
// the real simulator, so the plan then keeps every remaining config on
// the per-run stage. Sampling wins over fan-out when both are requested,
// because a fan group simulates every point's full ROI.
func plan(cfgs []sim.Config, keys []string, admit func(int) executor, opts Options, substituted bool) []entry {
	e := make([]entry, len(cfgs))
	for i := range cfgs {
		switch {
		case keys[i] == "":
			e[i] = entry{exec: execUnhashable, why: whyUnhashable}
		case admit != nil:
			switch e[i].exec = admit(i); e[i].exec {
			case execStore:
				e[i].why = whyStoreHit
			case execFlight:
				e[i].why = whyInFlight
			}
		}
	}
	switch {
	case substituted && (opts.Sample || opts.Fanout):
		for i := range e {
			if e[i].exec == execFull {
				e[i].why = whySubstituted
			}
		}
	case opts.Sample:
		planSample(e, cfgs)
	case opts.Fanout:
		planFan(e, cfgs, keys, opts.FanMaxGroup)
	}
	return e
}

// planSample makes every sample-eligible full entry a sampled candidate,
// grouped by its profile projection (profileConfig) so a P_Induce sweep
// and its baseline share one profile.
func planSample(e []entry, cfgs []sim.Config) {
	byKey := make(map[string]int32)
	for i := range e {
		if e[i].exec != execFull {
			continue
		}
		if !sim.SampleEligible(cfgs[i]) {
			e[i].why = whySampleIneligible
			continue
		}
		k, err := ConfigKey(profileConfig(cfgs[i]))
		if err != nil {
			e[i].why = whySampleIneligible // unreachable: cfgs[i] has a key
			continue
		}
		g, ok := byKey[k]
		if !ok {
			g = int32(len(byKey))
			byKey[k] = g
		}
		e[i] = entry{exec: execSampled, why: whyProfiled, group: g}
	}
}

// planFan groups the full entries that share a primary record stream
// (sim.FanGroupKey) into fan-out groups. Keyed configs are grouped in
// input order; a group is fanned only when it has at least two members
// and every member is still to run, so a resumed campaign, or one
// sharing work with another, finishes on the per-run path rather than
// switching strategy mid-sweep. maxGroup >= 2 caps group size (load shedding): oversized
// groups are split into chunks of at most maxGroup points, and a
// leftover singleton stays on the per-run stage.
func planFan(e []entry, cfgs []sim.Config, keys []string, maxGroup int) {
	byKey := make(map[string][]int)
	var order []string
	for i, cfg := range cfgs {
		if keys[i] == "" {
			continue
		}
		k, err := sim.FanGroupKey(cfg)
		if err != nil {
			continue // unreachable: cfg has a key
		}
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
				whole = whole && e[i].exec == execFull
			}
			for whole && len(g) >= 2 {
				n := len(g)
				if maxGroup >= 2 && n > maxGroup {
					n = maxGroup
				}
				for _, i := range g[:n] {
					e[i] = entry{exec: execFan, why: whyFanned, group: group}
				}
				group++
				g = g[n:]
				why = whyFanSingleton
			}
		}
		for _, i := range g {
			if e[i].exec == execFull {
				e[i].why = why
			}
		}
	}
}

// groups lists the members of each group of executor x, in group order.
func groups(e []entry, x executor) [][]int {
	var gs [][]int
	for i, en := range e {
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
