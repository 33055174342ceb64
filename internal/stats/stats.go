// Package stats implements the measurement machinery of the PInTE paper:
// weighted IPC (Eq 1), normalized standard deviation (Eq 3), relative
// error (Eq 4), Kullback–Leibler divergence in bits (Eq 5), reuse and
// metric histograms, five-number (boxplot) summaries, and contention rate
// grouping (CRG, §III-E).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// WeightedIPC is Eq 1: IPC under contention over IPC in isolation.
func WeightedIPC(contention, isolation float64) float64 {
	if isolation == 0 {
		return 0
	}
	return contention / isolation
}

// RelativeError is Eq 4: 100 × (reference − approx) / approx, where the
// paper's reference is the 2nd-Trace measurement and the approximation is
// PInTE. Positive means PInTE underestimates.
func RelativeError(reference, approx float64) float64 {
	if approx == 0 {
		if reference == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (reference - approx) / approx
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// NormStdDev is Eq 3: standard deviation normalized to the mean (the Fig
// 3 stability metric). It returns 0 when the mean is 0.
func NormStdDev(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// klEpsilon is the smoothing mass given to every bucket so that the
// divergence stays finite on empty buckets (the standard additive
// smoothing used when comparing empirical histograms).
const klEpsilon = 1e-6

// KLDivergenceBits is Eq 5: D_KL(p‖q) in log-base-2 (bits). p and q are
// histograms (not necessarily normalised) over the same buckets; both are
// smoothed with klEpsilon and normalised internally. It panics if the
// lengths differ, which is a programming error.
func KLDivergenceBits(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("stats: KL histogram length mismatch %d vs %d", len(p), len(q)))
	}
	if len(p) == 0 {
		return 0
	}
	const eps = klEpsilon
	var sp, sq float64
	for i := range p {
		sp += p[i] + eps
		sq += q[i] + eps
	}
	var d float64
	for i := range p {
		pi := (p[i] + eps) / sp
		qi := (q[i] + eps) / sq
		d += pi * math.Log2(pi/qi)
	}
	if d < 0 {
		// Floating-point jitter on identical inputs.
		d = 0
	}
	return d
}

// U64ToF64 converts a counter histogram to float64 buckets.
func U64ToF64(h []uint64) []float64 {
	out := make([]float64, len(h))
	for i, v := range h {
		out[i] = float64(v)
	}
	return out
}

// Summary is a five-number boxplot summary plus the mean.
type Summary struct {
	Min, Q1, Median, Q3, Max, Mean float64
	N                              int
}

// Summarize computes a Summary of xs. The zero Summary is returned for
// empty input.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Summary{
		Min:    s[0],
		Q1:     quantile(s, 0.25),
		Median: quantile(s, 0.5),
		Q3:     quantile(s, 0.75),
		Max:    s[len(s)-1],
		Mean:   Mean(s),
		N:      len(s),
	}
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g n=%d",
		s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean, s.N)
}
