package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	pinte "repro/internal/core"
	"repro/internal/phase"
	"repro/internal/telemetry"
)

// SampleStats reports how a phase-sampled run spent its budget and how
// far its extrapolation is warranted to stray from a full-ROI run.
type SampleStats struct {
	// Phases and Windows describe the plan; Intervals is the profiled
	// series length the plan was clustered from.
	Phases    int `json:"phases"`
	Windows   int `json:"windows"`
	Intervals int `json:"intervals"`
	// InstrsSimulated is the detailed budget paid (window warmups +
	// windows); InstrsSkipped the fast-forwarded remainder.
	InstrsSimulated uint64 `json:"instrs_simulated"`
	InstrsSkipped   uint64 `json:"instrs_skipped"`
	// Bounds are the plan's per-metric self-consistency error bounds
	// (see phase.Bounds).
	Bounds phase.Bounds `json:"bounds"`
	// TriggerRateBound widens the plan's trigger-rate bound by the
	// binomial sampling noise of the windows actually measured (the
	// same 4.5σ half-width the telemetry audit uses), so the realized
	// P_Induce of a sampled run carries an honest tolerance.
	TriggerRateBound float64 `json:"trigger_rate_bound"`
}

// SampleEligible reports whether cfg can execute in phase-sampled mode.
// Sampling drives a single primary core through skip/window cycles, so
// multi-core modes are out; features with their own instruction-count
// schedules (partitioning epochs, independent injection, telemetry
// collection) or probabilistic memory-side state (DRAM contention) are
// excluded because skipping would silently decouple their clocks.
func SampleEligible(cfg Config) bool { return sampleEligible(cfg.withDefaults()) }

// sampleEligible is SampleEligible of a defaulted config.
func sampleEligible(c Config) bool {
	if c.Mode != Isolation && c.Mode != PInTE {
		return false
	}
	return c.Partitioning == "" && c.LLCWayAllocation == 0 &&
		c.IndependentPeriod == 0 && c.DRAMContentionProb == 0 &&
		c.TelemetryEvery == 0
}

// runSampled executes cfg in phase-sampled mode: it fast-forwards the
// instruction stream between the plan's representative windows,
// simulates each window in detail after a short cache/predictor warmup,
// and extrapolates full-ROI metrics from the cluster-weighted sum of the
// window deltas. It builds its machine and primary core with the same
// newMachine and primaryCore as RunContext, and drives them through the
// same simLoop, so a plan whose one window spans the whole ROI reproduces
// the full run byte for byte — the equivalence
// TestSampledFullWindowMatchesRun enforces.
//
// The config's own WarmupInstrs region is not simulated: each window
// carries its own detailed warmup (plan.WarmupInstrs), which is what
// makes the ≥5× budget cut possible. Window state is therefore only
// warm over that run-in — the standard SimPoint-style approximation the
// plan's error bounds account for.
func runSampled(ctx context.Context, cfg Config) (*Result, error) {
	start := time.Now()
	plan := cfg.Sample
	m, err := newMachine(cfg)
	if err != nil {
		return nil, err
	}
	defer m.release()
	core0, err := m.primaryCore()
	if err != nil {
		return nil, err
	}
	loop := newSimLoop(ctx, core0, m.tick)

	// loop.skipped counts records fast-forwarded past without simulation,
	// so loop.pos() is the absolute stream position. Windows are
	// ROI-relative, and the profiled ROI began after the config's
	// warmup, so window w starts at stream position WarmupInstrs+w.Start.
	var t totals
	var occ float64 // cover-weighted end-of-window occupancy share
	// rawAcc and rawTrig are the unscaled measured engine events, the
	// binomial n behind the trigger-rate noise bound.
	var rawAcc, rawTrig, simInstrs uint64
	capBlocks := m.hier.LLC().CapacityBlocks()
	totalCover := plan.TotalCover()
	for _, w := range plan.Windows {
		width := w.End - w.Start
		if width == 0 || w.CoverInstrs == 0 {
			continue
		}
		absStart := cfg.WarmupInstrs + w.Start
		warmStart := absStart
		if plan.WarmupInstrs < warmStart {
			warmStart = absStart - plan.WarmupInstrs
		} else {
			warmStart = 0
		}
		if warmStart > loop.pos() {
			n := warmStart - loop.pos()
			got := core0.SkipInstrs(n)
			loop.skipped += got
			if got < n {
				if err := core0.Err(); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("sim: trace ended %d records into a %d-record seek", got, n)
			}
		}
		preWarm := core0.Instrs
		if err := loop.runTo(absStart); err != nil {
			return nil, err
		}
		a := m.snap()
		if err := loop.runTo(loop.pos() + width); err != nil {
			return nil, err
		}
		b := m.snap()
		simInstrs += core0.Instrs - preWarm
		t.add(&a, &b, float64(w.CoverInstrs)/float64(b.instrs-a.instrs))
		rawAcc += b.engine.Accesses - a.engine.Accesses
		rawTrig += b.engine.Triggers - a.engine.Triggers
		if capBlocks > 0 {
			coverFrac := float64(w.CoverInstrs) / float64(totalCover)
			occ += coverFrac * float64(b.occ) / float64(capBlocks)
		}
	}
	if t.instrs == 0 {
		return nil, fmt.Errorf("%w: sampling plan has no usable windows", ErrBadConfig)
	}

	res := &Result{Config: resultConfig(cfg)}
	t.derive(res)
	res.OccupancyFrac = occ
	if m.engine != nil {
		res.Engine = &pinte.Stats{
			Accesses:      round(t.engAcc),
			Triggers:      round(t.engTrig),
			EvictBudget:   round(t.engBudget),
			Promotions:    round(t.engProm),
			Invalidations: round(t.engInv),
		}
	}

	st := &SampleStats{
		Phases:          plan.Phases,
		Windows:         len(plan.Windows),
		Intervals:       plan.Intervals,
		InstrsSimulated: simInstrs,
		InstrsSkipped:   loop.skipped,
		Bounds:          plan.Bounds,
	}
	st.TriggerRateBound = plan.Bounds.TriggerRateAbs
	if rawAcc > 0 {
		p := float64(rawTrig) / float64(rawAcc)
		st.TriggerRateBound += 4.5 * math.Sqrt(p*(1-p)/float64(rawAcc))
	}
	res.Sampled = st

	telemetry.Phase.SampledRuns.Add(1)
	telemetry.Phase.InstrsSimulated.Add(int64(simInstrs))
	telemetry.Phase.InstrsSkipped.Add(int64(loop.skipped))
	if plan.Every > 0 {
		covered := int64(len(plan.Windows))
		telemetry.Phase.IntervalsSimulated.Add(covered)
		telemetry.Phase.IntervalsSkipped.Add(int64(plan.Intervals) - covered)
	}

	res.WallTime = time.Since(start)
	return res, nil
}
