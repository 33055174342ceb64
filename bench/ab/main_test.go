package main

import "testing"

func TestCompareVerdicts(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name         string
		xa, xb       []float64
		higherBetter bool
		want         string
	}{
		{"faster in every pair", parent, shift(parent, -1), false, "gain"},
		{"higher-better throughput up", parent, shift(parent, 1), true, "gain"},
		{"same", parent, parent, false, "within bound"},
		{"slower beyond the bound", parent, shift(parent, 1.5), false, "regression"},
		{"slower within the bound", parent, shift(parent, 0.5), false, "within bound"},
		{"parent spread wider than the bound", []float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, parent, false, "unresolved"},
		{"noisy parent, change better in every run", []float64{12, 16, 12, 16, 12, 16, 12, 16, 12, 16}, shift(parent, -1), false, "gain"},
	} {
		if got := compare(c.xa, c.xb, c.higherBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareNeedsNineInTenPairs(t *testing.T) {
	parent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	change := []float64{9, 9, 9, 9, 9, 9, 9, 9, 11, 11} // 8 wins of 10
	if r := compare(parent, change, false, 0.1); r.wins != 8 || r.verdict == "gain" {
		t.Errorf("8/10 wins gave %d wins, verdict %q", r.wins, r.verdict)
	}
}
