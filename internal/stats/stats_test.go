package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWeightedIPC(t *testing.T) {
	if got := WeightedIPC(0.5, 1.0); got != 0.5 {
		t.Errorf("WeightedIPC = %v, want 0.5", got)
	}
	if got := WeightedIPC(1.0, 0); got != 0 {
		t.Errorf("WeightedIPC with zero isolation = %v, want 0", got)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-10) > 1e-12 {
		t.Errorf("RelativeError = %v, want 10", got)
	}
	if got := RelativeError(90, 100); math.Abs(got+10) > 1e-12 {
		t.Errorf("RelativeError = %v, want -10", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Errorf("RelativeError(0,0) = %v, want 0", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(1,0) = %v, want +Inf", got)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Errorf("StdDev = %v, want 2", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs not zero")
	}
}

func TestNormStdDev(t *testing.T) {
	xs := []float64{10, 10, 10}
	if NormStdDev(xs) != 0 {
		t.Error("constant series has nonzero normalized std-dev")
	}
	a := NormStdDev([]float64{9, 10, 11})
	b := NormStdDev([]float64{90, 100, 110})
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("normalization not scale-invariant: %v vs %v", a, b)
	}
	if NormStdDev([]float64{-1, 0, 1}) != 0 {
		t.Error("zero-mean series should return 0")
	}
}

func TestKLIdenticalIsZero(t *testing.T) {
	p := []float64{1, 2, 3, 4, 0, 5}
	if d := KLDivergenceBits(p, p); d != 0 {
		t.Errorf("KL(p,p) = %v, want 0", d)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(pa, pb, pc, qa, qb, qc uint16) bool {
		p := []float64{float64(pa), float64(pb), float64(pc)}
		q := []float64{float64(qa), float64(qb), float64(qc)}
		return KLDivergenceBits(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLAsymmetricAndFiniteOnZeros(t *testing.T) {
	p := []float64{100, 0, 0}
	q := []float64{1, 1, 98}
	d1 := KLDivergenceBits(p, q)
	d2 := KLDivergenceBits(q, p)
	if math.IsInf(d1, 0) || math.IsInf(d2, 0) {
		t.Fatal("smoothed KL returned infinity")
	}
	if d1 == d2 {
		t.Error("KL should be asymmetric on these inputs")
	}
	if d1 < 1 {
		t.Errorf("very different distributions yield tiny divergence %v", d1)
	}
}

func TestKLKnownValue(t *testing.T) {
	// Uniform vs point mass over 2 buckets: D(p‖q) with p=(1,0),
	// q=(0.5,0.5) is 1 bit (up to smoothing).
	p := []float64{1, 0}
	q := []float64{0.5, 0.5}
	d := KLDivergenceBits(p, q)
	if math.Abs(d-1) > 1e-3 {
		t.Errorf("KL = %v bits, want ≈1", d)
	}
}

func TestKLLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	KLDivergenceBits([]float64{1}, []float64{1, 2})
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 || s.N != 5 {
		t.Errorf("summary = %+v", s)
	}
	if s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("quartiles = %v/%v, want 2/4", s.Q1, s.Q3)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty summary not zero")
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Median != 7 {
		t.Errorf("single-element summary = %+v", one)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestU64ToF64(t *testing.T) {
	got := U64ToF64([]uint64{1, 2, 3})
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("U64ToF64 = %v", got)
	}
}
