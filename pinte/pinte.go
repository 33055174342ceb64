// Package pinte is the public API of this PInTE reproduction. It runs
// workloads on the bundled trace-driven cache/CPU simulator in the
// paper's three contention contexts — isolation, PInTE-induced contention
// at a configurable probability, and 2nd-Trace multi-programmed contention
// — and exposes the analysis helpers the paper's evaluation uses
// (weighted IPC, KL divergence, contention-sensitivity classification).
//
// A minimal session:
//
//	iso, _ := pinte.Run(pinte.Experiment{Workload: "429.mcf"})
//	con, _ := pinte.Run(pinte.Experiment{
//		Workload: "429.mcf", Mode: pinte.ModePInTE, PInduce: 0.3,
//	})
//	fmt.Println(con.WeightedIPC(iso.IPC))
package pinte

import (
	"fmt"
	"time"

	"repro/internal/c2afe"
	"repro/internal/cache"
	pcore "repro/internal/core"
	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Mode selects the source of contention.
type Mode int

const (
	// ModeIsolation runs the workload alone (the baseline context).
	ModeIsolation Mode = iota
	// ModePInTE attaches the probabilistic theft-injection engine to
	// the LLC.
	ModePInTE
	// ModeSecondTrace co-runs an adversary workload on a second core
	// sharing the LLC and DRAM.
	ModeSecondTrace
)

// Machine holds the optional machine-model overrides most studies need;
// zero values select the paper's Skylake-like default (§III-A).
type Machine struct {
	// LLCPolicy is the LLC replacement policy: "lru" (default),
	// "plru", "nmru" or "rrip".
	LLCPolicy string
	// Inclusion is the LLC inclusion mode: "no" (default), "in", "ex".
	Inclusion string
	// Prefetch is the paper's 3-character permutation over
	// {L1I, L1D, L2}: "000" (default), "NN0", "NNN", "NNI".
	Prefetch string
	// Branch is the predictor: "bimodal", "gshare", "perceptron" or
	// "hashed-perceptron" (default).
	Branch string
	// LLCSizeBytes overrides the 4MB LLC (e.g. the Fig 10 11MB proxy).
	LLCSizeBytes int
	// HalvedDRAM halves memory resources (the Fig 10 proxy system).
	HalvedDRAM bool
	// Partitioning enables a dynamic LLC partitioning controller:
	// "ucp" (utility-based, UMON shadow tags) or "theft" (CASHT-style,
	// driven by theft counters). "" leaves the LLC fully shared.
	Partitioning string
}

// Experiment describes one simulation.
type Experiment struct {
	// Workload is a benchmark preset name; see Workloads.
	Workload string
	// Adversary is the co-runner preset (ModeSecondTrace only);
	// Adversaries adds further co-runners on additional cores.
	Adversary   string
	Adversaries []string
	Mode        Mode
	// PInduce is the injection probability in [0, 1] (ModePInTE only).
	PInduce float64
	Machine Machine
	// Warmup, ROI and SampleEvery are instruction budgets for the
	// warm-up phase, measured region, and sampling interval; zero
	// selects 200k / 1M / 50k (the paper's 500M / 500M / 10M scaled).
	Warmup, ROI, SampleEvery uint64
	// Seed makes the run reproducible; equal experiments with equal
	// seeds produce identical results.
	Seed uint64
	// Extensions enables the §IV-E2b future-work mechanisms.
	Extensions Extensions
}

// Extensions configures the beyond-the-paper injection mechanisms the
// paper's limitation analysis sketches (§IV-E2b). Zero values disable
// both; baseline results are unaffected.
type Extensions struct {
	// IndependentPeriod, in instructions, decouples PInTE from LLC
	// accesses: the injection flow runs on this schedule, sweeping LLC
	// sets round-robin (remedy for core-bound workloads; PInTE mode
	// only).
	IndependentPeriod uint64
	// DRAMContentionProb and DRAMContentionPenalty inject extra memory
	// latency with the given probability, up to the given cycle count
	// per access (remedy for DRAM-bound workloads).
	DRAMContentionProb    float64
	DRAMContentionPenalty uint64
}

// Sample is one run-time measurement interval (the paper's per-10M
// instruction samples).
type Sample struct {
	Instrs           uint64
	IPC              float64
	MissRate         float64
	AMAT             float64
	InterferenceRate float64
	TheftRate        float64
	OccupancyFrac    float64
}

// Result reports one experiment's region-of-interest measurements.
type Result struct {
	Workload string
	Mode     Mode
	PInduce  float64

	Instrs, Cycles uint64
	IPC            float64
	// MissRate is the workload's LLC miss ratio.
	MissRate float64
	// AMAT is average memory access time in cycles over demand data
	// accesses.
	AMAT float64
	// ContentionRate is thefts experienced per LLC access — the
	// paper's contention rate. Under the access-independent extension
	// it can exceed 1 (injections are decoupled from accesses).
	ContentionRate float64
	// InducedThefts counts valid blocks the PInTE engine invalidated
	// (ModePInTE only).
	InducedThefts  uint64
	BranchAccuracy float64
	// OccupancyFrac is the mean fraction of the LLC the workload held.
	OccupancyFrac float64

	// ReuseHist is the LLC hit-position (reuse) histogram.
	ReuseHist []uint64
	Samples   []Sample

	WallTime time.Duration
}

// WeightedIPC is Eq 1: this result's IPC over an isolation IPC.
func (r *Result) WeightedIPC(isolationIPC float64) float64 {
	return stats.WeightedIPC(r.IPC, isolationIPC)
}

// Run executes one experiment.
func Run(e Experiment) (*Result, error) {
	cfg, err := e.toSim()
	if err != nil {
		return nil, err
	}
	sr, err := sim.Run(cfg)
	if err != nil {
		return nil, err
	}
	return fromSim(e, sr), nil
}

func (e Experiment) toSim() (sim.Config, error) {
	cfg := sim.Config{
		Workload:              e.Workload,
		Adversary:             e.Adversary,
		Adversaries:           e.Adversaries,
		PInduce:               e.PInduce,
		WarmupInstrs:          e.Warmup,
		ROIInstrs:             e.ROI,
		SampleEvery:           e.SampleEvery,
		Seed:                  e.Seed,
		Branch:                e.Machine.Branch,
		IndependentPeriod:     e.Extensions.IndependentPeriod,
		DRAMContentionProb:    e.Extensions.DRAMContentionProb,
		DRAMContentionPenalty: e.Extensions.DRAMContentionPenalty,
	}
	switch e.Mode {
	case ModeIsolation:
		cfg.Mode = sim.Isolation
	case ModePInTE:
		cfg.Mode = sim.PInTE
	case ModeSecondTrace:
		cfg.Mode = sim.SecondTrace
		if e.Adversary == "" {
			return cfg, fmt.Errorf("pinte: ModeSecondTrace requires an Adversary")
		}
	default:
		return cfg, fmt.Errorf("pinte: unknown mode %d", e.Mode)
	}
	m := e.Machine
	if m.Inclusion != "" {
		incl, err := cache.ParseInclusion(m.Inclusion)
		if err != nil {
			return cfg, err
		}
		cfg.Hier.Inclusion = incl
	}
	cfg.Hier.Prefetch = m.Prefetch
	cfg.Hier.LLC.Policy = m.LLCPolicy
	cfg.Partitioning = m.Partitioning
	if m.LLCSizeBytes != 0 {
		cfg.Hier.LLC.SizeBytes = m.LLCSizeBytes
		cfg.Hier.LLC.Ways = 16
		cfg.Hier.LLC.HitLatency = 30
	}
	if m.HalvedDRAM {
		d := dram.Halved()
		cfg.DRAM = &d
	}
	return cfg, nil
}

func fromSim(e Experiment, sr *sim.Result) *Result {
	r := &Result{
		Workload:       e.Workload,
		Mode:           e.Mode,
		PInduce:        e.PInduce,
		Instrs:         sr.Instrs,
		Cycles:         sr.Cycles,
		IPC:            sr.IPC,
		MissRate:       sr.MissRate,
		AMAT:           sr.AMAT,
		ContentionRate: sr.ContentionRate,
		BranchAccuracy: sr.BranchAccuracy,
		OccupancyFrac:  sr.OccupancyFrac,
		ReuseHist:      sr.ReuseHist,
		WallTime:       sr.WallTime,
	}
	if sr.Engine != nil {
		r.InducedThefts = sr.Engine.Invalidations
	}
	for _, s := range sr.Samples {
		r.Samples = append(r.Samples, Sample{
			Instrs:           s.Instrs,
			IPC:              s.IPC,
			MissRate:         s.MissRate,
			AMAT:             s.AMAT,
			InterferenceRate: s.InterferenceRate,
			TheftRate:        s.TheftRate,
			OccupancyFrac:    s.OccupancyFrac,
		})
	}
	return r
}

// Workloads returns all bundled benchmark preset names.
func Workloads() []string { return trace.Names() }

// WorkloadsBySuite returns preset names for "SPEC2006" or "SPEC2017".
func WorkloadsBySuite(suite string) []string { return trace.NamesBySuite(suite) }

// DefaultSweep returns the paper's 12-point P_Induce configuration set.
func DefaultSweep() []float64 { return pcore.DefaultSweep() }

// KLDivergenceBits is Eq 5: the Kullback–Leibler divergence between two
// histograms in bits (p observed, q reference).
func KLDivergenceBits(p, q []float64) float64 {
	return stats.KLDivergenceBits(p, q)
}

// Sensitivity classifies a set of weighted-IPC samples at a tolerable
// performance loss (use 0 for the paper's 5% default) and returns the
// class name ("low", "mixed", "high") plus the sensitive-curve
// population in [0, 1].
func Sensitivity(weightedIPC []float64, tpl float64) (string, float64) {
	if tpl == 0 {
		tpl = c2afe.DefaultTPL
	}
	class, scp := c2afe.Classify(weightedIPC, tpl)
	return class.String(), scp
}
