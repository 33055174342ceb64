package expt

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig5Case is one reuse-histogram alignment case.
type Fig5Case struct {
	Benchmark string
	KLBits    float64
	// SecondHist and PInTEHist are the normalised reuse (hit-position)
	// histograms being compared.
	SecondHist []float64
	PInTEHist  []float64
}

// Fig5Result reproduces Figure 5: reuse-distance histograms under PInTE
// vs 2nd-Trace contention for three alignment cases (good / medium /
// worst), quantified with KL divergence. Cases are selected from the
// scale's workloads by observed KL rank, mirroring the paper's choice of
// gromacs / fotonik3d_s / imagick_s.
type Fig5Result struct {
	Good, Medium, Worst Fig5Case
}

// reuseKL returns the KL divergence (bits) between a 2nd-Trace result's
// reuse histogram (observed, p) and its CRG-matched PInTE partner's
// (reference, q), per §IV-E3.
func reuseKL(second, pin *sim.Result) float64 {
	return stats.KLDivergenceBits(
		stats.U64ToF64(second.ReuseHist),
		stats.U64ToF64(pin.ReuseHist),
	)
}

func normalize(h []uint64) []float64 {
	out := stats.U64ToF64(h)
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum == 0 {
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// benchReuseKL computes each workload's mean reuse KL over CRG-matched
// (2nd-Trace, PInTE) pairs, plus one representative pair per workload.
func benchReuseKL(r *Runner) (map[string]float64, map[string][2]*sim.Result, error) {
	pairs, err := r.PairsAll()
	if err != nil {
		return nil, nil, err
	}
	sweep, err := r.SweepAll()
	if err != nil {
		return nil, nil, err
	}
	crg := stats.DefaultCRG()
	kls := make(map[string]float64)
	rep := make(map[string][2]*sim.Result)
	for _, w := range r.Scale.Workloads {
		matched := matchByCRG(crg, pairs[w], sweep[w])
		if len(matched) == 0 {
			continue
		}
		var sum float64
		for _, m := range matched {
			sum += reuseKL(m[0], m[1])
		}
		kls[w] = sum / float64(len(matched))
		rep[w] = matched[0]
	}
	return kls, rep, nil
}

// Fig5 selects the best-, median- and worst-aligned workloads by reuse
// KL and reports their histograms.
func Fig5(r *Runner) (*Fig5Result, *report.Table, error) {
	kls, rep, err := benchReuseKL(r)
	if err != nil {
		return nil, nil, err
	}
	if len(kls) == 0 {
		return nil, nil, fmt.Errorf("expt: fig5 found no CRG-matched pairs")
	}
	// Rank workloads by KL, skipping those whose reuse histograms are
	// too thin to compare (core-bound workloads with almost no LLC
	// hits yield degenerate zero-KL "matches").
	type wk struct {
		w  string
		kl float64
	}
	var ranked []wk
	for w, k := range kls {
		var hits uint64
		for _, v := range rep[w][0].ReuseHist {
			hits += v
		}
		if hits < 50 {
			continue
		}
		ranked = append(ranked, wk{w, k})
	}
	if len(ranked) == 0 {
		return nil, nil, fmt.Errorf("expt: fig5 found no workloads with usable reuse histograms")
	}
	for i := 0; i < len(ranked); i++ {
		for j := i + 1; j < len(ranked); j++ {
			if ranked[j].kl < ranked[i].kl {
				ranked[i], ranked[j] = ranked[j], ranked[i]
			}
		}
	}
	mk := func(e wk) Fig5Case {
		m := rep[e.w]
		return Fig5Case{
			Benchmark:  e.w,
			KLBits:     e.kl,
			SecondHist: normalize(m[0].ReuseHist),
			PInTEHist:  normalize(m[1].ReuseHist),
		}
	}
	res := &Fig5Result{
		Good:   mk(ranked[0]),
		Medium: mk(ranked[len(ranked)/2]),
		Worst:  mk(ranked[len(ranked)-1]),
	}

	tbl := &report.Table{
		ID:      "fig5",
		Title:   "Reuse histograms under PInTE vs 2nd-Trace: alignment cases",
		Columns: []string{"Case", "Benchmark", "KL (bits)", "hist(2nd-Trace)", "hist(PInTE)"},
	}
	histStr := func(h []float64) string {
		s := ""
		for i, v := range h {
			if i > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.2f", v)
		}
		return s
	}
	for _, c := range []struct {
		name string
		c    Fig5Case
	}{{"good", res.Good}, {"medium", res.Medium}, {"worst", res.Worst}} {
		tbl.AddRowf(c.name, c.c.Benchmark, c.c.KLBits,
			histStr(c.c.SecondHist), histStr(c.c.PInTEHist))
	}
	tbl.Notes = append(tbl.Notes,
		"histogram buckets are LLC hit stack positions (0 = MRU end)",
		"paper's cases: gromacs (good), fotonik3d_s (~20x good), imagick_s (>200x good)",
	)
	return res, tbl, nil
}
