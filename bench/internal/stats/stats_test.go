package stats

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(c.xs); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1.5, 2.5, 10, 4, 7, 3.25, 8, 9, 0.5, 6}, 2.25, 8.25},
		{[]float64{5, 5, 5, 5, 5}, 5, 5},
	} {
		q1, q3, ok := Quartiles(c.xs)
		if !ok || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("Quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
	}
	if _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("Quartiles of one value reported ok")
	}
}

func TestPercentileAndBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := Percentile(xs, 0.5); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := Percentile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := Beyond(100, 0.9); got != 10 {
		t.Errorf("Beyond(100, 0.9) = %d, want 10", got)
	}
	if got := Beyond(99, 0.9); got != 9 {
		t.Errorf("Beyond(99, 0.9) = %d, want 9: a p90 of 99 samples has too few beyond it", got)
	}
	if got := Percentile(nil, 0.9); got != 0 {
		t.Errorf("p90 of nothing = %v", got)
	}
	if got := Beyond(0, 0.9); got != 0 {
		t.Errorf("Beyond(0) = %d", got)
	}
}
