package expt

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fig7Metrics are the five run-time metrics whose dynamic similarity the
// paper quantifies (Fig 7a).
var fig7Metrics = []string{"IPC", "MR", "AMAT", "InterfRate", "TheftRate"}

func sampleMetric(s sim.Sample, metric int) float64 {
	switch metric {
	case 0:
		return s.IPC
	case 1:
		return s.MissRate
	case 2:
		return s.AMAT
	case 3:
		return s.InterferenceRate
	case 4:
		return s.TheftRate
	}
	panic(fmt.Sprintf("expt: unknown fig7 metric %d", metric))
}

// Fig7Result reproduces Figure 7: (a) KL divergence between run-time
// metric series under 2nd-Trace (p) and PInTE (q) contention, summarised
// per metric for each CRG criterion; (b) the fraction of 2nd-Trace
// experiments each criterion finds a PInTE match for, plus the
// experiment-count ratio.
type Fig7Result struct {
	// KL[criterion][metric] summarises the matched-pair divergences.
	KL [][]stats.Summary
	// Coverage[criterion] is the matched fraction of 2nd-Trace
	// experiments (paper: ~92% within ±5%).
	Coverage []float64
	// ExperimentRatio is the §IV-E4 count ratio at full scale (7.79×).
	ExperimentRatio float64
}

// seriesKL treats two equal-length metric series as distributions over
// sample indices (Eq 5 with samples as x).
func seriesKL(second, pin []sim.Sample, metric int) float64 {
	n := len(second)
	if len(pin) < n {
		n = len(pin)
	}
	if n == 0 {
		return 0
	}
	p := make([]float64, n)
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		p[i] = sampleMetric(second[i], metric)
		q[i] = sampleMetric(pin[i], metric)
	}
	return stats.KLDivergenceBits(p, q)
}

// Fig7 computes run-time divergence and CRG coverage.
func Fig7(r *Runner) (*Fig7Result, []*report.Table, error) {
	pairs, err := r.PairsAll()
	if err != nil {
		return nil, nil, err
	}
	sweep, err := r.SweepAll()
	if err != nil {
		return nil, nil, err
	}

	criteria := stats.Criteria()
	res := &Fig7Result{
		KL:       make([][]stats.Summary, len(criteria)),
		Coverage: make([]float64, len(criteria)),
	}
	const traces = 188.0
	res.ExperimentRatio = (traces * (traces - 1) / 2) / (12 * traces)

	for ci, crg := range criteria {
		perMetric := make([][]float64, len(fig7Metrics))
		var matchedTotal, secondTotal int
		for _, w := range r.Scale.Workloads {
			matched := matchByCRG(crg, pairs[w], sweep[w])
			matchedTotal += len(matched)
			secondTotal += len(pairs[w])
			for _, m := range matched {
				for mi := range fig7Metrics {
					perMetric[mi] = append(perMetric[mi],
						seriesKL(m[0].Samples, m[1].Samples, mi))
				}
			}
		}
		res.KL[ci] = make([]stats.Summary, len(fig7Metrics))
		for mi := range fig7Metrics {
			res.KL[ci][mi] = stats.Summarize(perMetric[mi])
		}
		if secondTotal > 0 {
			res.Coverage[ci] = float64(matchedTotal) / float64(secondTotal)
		}
	}

	ta := &report.Table{
		ID:      "fig7a",
		Title:   "KL divergence of run-time metric series, 2nd-Trace vs PInTE (bits)",
		Columns: []string{"CRG", "Metric", "Median", "Q1", "Q3", "Max"},
	}
	for ci, crg := range criteria {
		for mi, m := range fig7Metrics {
			s := res.KL[ci][mi]
			ta.AddRowf(fmt.Sprintf("±%.1f%%", 100*crg.HalfWidth), m,
				s.Median, s.Q1, s.Q3, s.Max)
		}
	}
	ta.Notes = append(ta.Notes,
		"paper: IPC/MR/AMAT series are <<1 bit apart; interference & theft rates run higher by design")

	tb := &report.Table{
		ID:      "fig7b",
		Title:   "CRG coverage of 2nd-Trace experiments by PInTE",
		Columns: []string{"CRG", "Coverage"},
	}
	for ci, crg := range criteria {
		tb.AddRowf(fmt.Sprintf("±%.1f%%", 100*crg.HalfWidth),
			fmt.Sprintf("%.0f%%", 100*res.Coverage[ci]))
	}
	tb.Notes = append(tb.Notes,
		fmt.Sprintf("full-scale experiment-count ratio: %.2fx fewer experiments (paper 7.79x, ~92%% coverage at ±5%%)",
			res.ExperimentRatio))
	return res, []*report.Table{ta, tb}, nil
}
