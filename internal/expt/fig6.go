package expt

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/report"
	"repro/internal/stats"
)

// Fig6Result reproduces Figure 6: (a) per-benchmark reuse KL divergence
// with random-distribution calibration bounds, and (b) the root-cause
// comparison of the highest- and lowest-KL workloads (L2/LLC MPKI and the
// writeback share of LLC fills — the "L2 spill" signature).
type Fig6Result struct {
	// KL maps benchmark → mean reuse KL divergence (bits).
	KL map[string]float64
	// MeanKL is the cross-benchmark mean (paper: 0.84 bits).
	MeanKL float64
	// Bound99/95/90 are the random-calibration thresholds: N% of
	// randomly generated histograms have KL above the bound (paper:
	// 0.23 / 0.35 / 0.44).
	Bound99, Bound95, Bound90 float64
	// Within99/95/90 are the fraction of workloads at or below each
	// bound (paper: 36% / 48% / 55%).
	Within99, Within95, Within90 float64

	// RootCause rows: benchmark, KL, L2MPKI, LLCMPKI, writeback share.
	RootCause []Fig6RootCause
}

// Fig6RootCause is one row of the Fig 6b analysis.
type Fig6RootCause struct {
	Benchmark      string
	KLBits         float64
	L2MPKI         float64
	LLCMPKI        float64
	WritebackShare float64
	Group          string // "high-KL" or "low-KL"
}

// randomKLBounds draws synthetic histograms with uniformly random bucket
// masses and returns the 1st/5th/10th percentiles of their KL against the
// reference histograms — the calibration the paper uses to define its
// 99/95/90% benchmarks.
func randomKLBounds(refs [][]float64, draws int, seed uint64) (b99, b95, b90 float64) {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	var kls []float64
	for _, ref := range refs {
		if len(ref) == 0 {
			continue
		}
		for d := 0; d < draws; d++ {
			randHist := make([]float64, len(ref))
			for i := range randHist {
				randHist[i] = rng.Float64()
			}
			kls = append(kls, stats.KLDivergenceBits(randHist, ref))
		}
	}
	if len(kls) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(kls)
	pick := func(q float64) float64 {
		i := int(q * float64(len(kls)-1))
		return kls[i]
	}
	return pick(0.01), pick(0.05), pick(0.10)
}

// Fig6 computes the reuse-KL distribution, calibration bounds and
// root-cause rows. It returns two tables: the per-benchmark KL list
// (Fig 6a) and the root-cause comparison (Fig 6b).
func Fig6(r *Runner) (*Fig6Result, []*report.Table, error) {
	kls, rep, err := benchReuseKL(r)
	if err != nil {
		return nil, nil, err
	}
	if len(kls) == 0 {
		return nil, nil, fmt.Errorf("expt: fig6 found no CRG-matched pairs")
	}
	res := &Fig6Result{KL: kls}
	// Everything below walks the workloads in sorted order: the seeded
	// calibration draws pair with refs by position, and the float sum
	// depends on its order.
	names := make([]string, 0, len(kls))
	for w := range kls {
		names = append(names, w)
	}
	sort.Strings(names)
	var refs [][]float64
	var sum float64
	for _, w := range names {
		sum += kls[w]
		refs = append(refs, stats.U64ToF64(rep[w][0].ReuseHist))
	}
	res.MeanKL = sum / float64(len(kls))
	res.Bound99, res.Bound95, res.Bound90 = randomKLBounds(refs, 100, r.Scale.Seed)

	within := func(bound float64) float64 {
		n := 0
		for _, k := range kls {
			if k <= bound {
				n++
			}
		}
		return float64(n) / float64(len(kls))
	}
	res.Within99 = within(res.Bound99)
	res.Within95 = within(res.Bound95)
	res.Within90 = within(res.Bound90)

	// Root cause: rank by KL, take up to 3 from each extreme.
	type wk struct {
		w  string
		kl float64
	}
	var ranked []wk
	for _, w := range names {
		ranked = append(ranked, wk{w, kls[w]})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].kl != ranked[j].kl {
			return ranked[i].kl < ranked[j].kl
		}
		return ranked[i].w < ranked[j].w
	})
	take := len(ranked) / 2
	if take > 3 {
		take = 3
	}
	if take == 0 && len(ranked) > 0 {
		// Degenerate tiny scales: report the single workload as the
		// high-KL exemplar rather than nothing.
		take = 0
		m := rep[ranked[0].w]
		res.RootCause = append(res.RootCause, Fig6RootCause{
			Benchmark:      ranked[0].w,
			KLBits:         ranked[0].kl,
			L2MPKI:         m[0].L2MPKI,
			LLCMPKI:        m[0].LLCMPKI,
			WritebackShare: m[0].LLCWritebackFillShare,
			Group:          "high-KL",
		})
	}
	addRC := func(e wk, group string) {
		m := rep[e.w]
		second := m[0]
		res.RootCause = append(res.RootCause, Fig6RootCause{
			Benchmark:      e.w,
			KLBits:         e.kl,
			L2MPKI:         second.L2MPKI,
			LLCMPKI:        second.LLCMPKI,
			WritebackShare: second.LLCWritebackFillShare,
			Group:          group,
		})
	}
	for i := 0; i < take; i++ {
		addRC(ranked[i], "low-KL")
	}
	for i := len(ranked) - take; i < len(ranked); i++ {
		addRC(ranked[i], "high-KL")
	}

	tbl := &report.Table{
		ID:      "fig6",
		Title:   "Reuse KL divergence per benchmark with random-calibration bounds",
		Columns: []string{"Benchmark", "KL (bits)"},
	}
	for _, w := range names {
		tbl.AddRowf(w, kls[w])
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("mean KL %.3f bits (paper 0.84)", res.MeanKL),
		fmt.Sprintf("bounds 99/95/90%%: %.3f / %.3f / %.3f (paper 0.23 / 0.35 / 0.44)",
			res.Bound99, res.Bound95, res.Bound90),
		fmt.Sprintf("workloads within bounds: %.0f%% / %.0f%% / %.0f%% (paper 36/48/55)",
			100*res.Within99, 100*res.Within95, 100*res.Within90),
	)
	rc := &report.Table{
		ID:      "fig6b",
		Title:   "Root cause: cache behaviour of highest- vs lowest-KL workloads",
		Columns: []string{"Group", "Benchmark", "KL", "L2 MPKI", "LLC MPKI", "WB fill share"},
	}
	for _, row := range res.RootCause {
		rc.AddRowf(row.Group, row.Benchmark, row.KLBits, row.L2MPKI, row.LLCMPKI, row.WritebackShare)
	}
	rc.Notes = append(rc.Notes,
		"paper: high KL correlates with LLC traffic dominated by L2 write-back spills (core-bound)")
	return res, []*report.Table{tbl, rc}, nil
}
