// Package server is the pinted campaign service: an HTTP/JSON front
// end that accepts sweep specifications (the same normalized sim.Config
// campaigns pintesweep builds), runs them on one shared bounded worker
// pool under weighted fair scheduling and per-tenant quotas, streams
// per-run results, and survives crashes — every computed run is stored
// in the content-addressed result store (internal/store) before it is
// streamed, and a restarted server reloads its manifest and resumes
// every unfinished campaign from where it stopped, its stored runs
// served as store hits.
package server

import (
	"fmt"
	"strings"

	pinte "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SweepSpec is the wire form of a campaign submission: which workloads
// to sweep, at which P_Induce points, under which budgets. Zero fields
// take the same defaults as pintesweep's flags, so the smallest valid
// submission is {"workloads": ["450.soplex"]}.
type SweepSpec struct {
	// Workloads names the trace presets to sweep; the single entry
	// "all" expands to every preset.
	Workloads []string `json:"workloads"`
	// Points are the P_Induce values; empty means the paper's default
	// sweep (pinte.DefaultSweep).
	Points []float64 `json:"points,omitempty"`
	// WarmupInstrs and ROIInstrs bound each run; 0 means the
	// pintesweep defaults (200k warm-up, 1M ROI).
	WarmupInstrs uint64 `json:"warmup_instrs,omitempty"`
	ROIInstrs    uint64 `json:"roi_instrs,omitempty"`
	// Seed is the campaign's base random seed; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Weight is the campaign's fair-share weight on the shared pool
	// (minimum and default 1): a weight-2 campaign receives twice the
	// worker dispatches of a weight-1 competitor under contention.
	Weight int `json:"weight,omitempty"`
	// DeadlineSeconds bounds the whole campaign's wall-clock time; 0
	// means no campaign deadline. An expired deadline cancels the
	// campaign's remaining runs (completed runs stay stored).
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Sample runs the campaign under phase-aware representative
	// sampling (runner.Options.Sample): one profiling pre-pass per
	// workload, then only the clustered representative windows are
	// simulated per run, with extrapolation error bounds reported in
	// each result's "sampled" block. Approximate by design: sampled
	// results are stored under their own key, so an unsampled campaign
	// never receives one, while a sampled one also takes a stored
	// full-fidelity result where there is one.
	Sample bool `json:"sample,omitempty"`
}

// normalized returns the spec with every default resolved and the
// workload list expanded — the canonical form stored in the manifest,
// so a resumed campaign rebuilds byte-identical configs. Submission
// order is preserved: result indices are part of the stream contract.
func (s SweepSpec) normalized() SweepSpec {
	out := s
	if len(out.Workloads) == 1 && out.Workloads[0] == "all" {
		out.Workloads = trace.Names()
	}
	out.Workloads = append([]string(nil), out.Workloads...)
	if len(out.Points) == 0 {
		out.Points = pinte.DefaultSweep()
	}
	out.Points = append([]float64(nil), out.Points...)
	if out.WarmupInstrs == 0 {
		out.WarmupInstrs = 200_000
	}
	if out.ROIInstrs == 0 {
		out.ROIInstrs = 1_000_000
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	if out.Weight < 1 {
		out.Weight = 1
	}
	return out
}

// Validate rejects a spec the simulator could not run, so admission
// fails fast with a 400 instead of burning a worker slot on a config
// that dies with ErrBadConfig.
func (s SweepSpec) Validate() error {
	if len(s.Workloads) == 0 {
		return fmt.Errorf("spec has no workloads")
	}
	known := make(map[string]bool)
	for _, n := range trace.Names() {
		known[n] = true
	}
	if !(len(s.Workloads) == 1 && s.Workloads[0] == "all") {
		var bad []string
		for _, w := range s.Workloads {
			if !known[w] {
				bad = append(bad, w)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("unknown workloads: %s", strings.Join(bad, ", "))
		}
	}
	for _, p := range s.Points {
		if p < 0 || p > 1 {
			return fmt.Errorf("P_Induce point %g outside [0, 1]", p)
		}
	}
	if s.DeadlineSeconds < 0 {
		return fmt.Errorf("negative deadline")
	}
	return nil
}

// Configs expands the spec into the campaign's run list in pintesweep's
// canonical order: one isolation baseline per workload first, then the
// PInTE grid — workload-major, point-minor. The order is part of the
// contract: result indices on the stream refer to it, and a resumed
// campaign must rebuild the identical list to find its stored runs.
func (s SweepSpec) Configs() []sim.Config {
	n := s.normalized()
	var cfgs []sim.Config
	for _, w := range n.Workloads {
		cfgs = append(cfgs, sim.Config{
			Workload: w, WarmupInstrs: n.WarmupInstrs, ROIInstrs: n.ROIInstrs, Seed: n.Seed,
		})
	}
	for _, w := range n.Workloads {
		for _, p := range n.Points {
			cfgs = append(cfgs, sim.Config{
				Mode: sim.PInTE, Workload: w, PInduce: p,
				WarmupInstrs: n.WarmupInstrs, ROIInstrs: n.ROIInstrs, Seed: n.Seed,
			})
		}
	}
	return cfgs
}

// Runs is the number of configs the spec expands to, computable without
// materializing them.
func (s SweepSpec) Runs() int {
	n := s.normalized()
	return len(n.Workloads) * (1 + len(n.Points))
}
