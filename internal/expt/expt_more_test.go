package expt

import (
	"reflect"
	"strings"
	"testing"
)

func TestFig3Stability(t *testing.T) {
	s := micro()
	s.Reruns = 3
	r := NewRunner(s)
	res, tbl, err := Fig3(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerBenchmarkIPC) != len(s.Workloads) {
		t.Fatalf("per-benchmark entries: %d", len(res.PerBenchmarkIPC))
	}
	// The paper's claim at our scale: tiny normalized deviations.
	for w, v := range res.PerBenchmarkIPC {
		if v > 0.05 {
			t.Errorf("%s: IPC instability %v across engine seeds", w, v)
		}
	}
	if res.MaxMR > 0.2 {
		t.Errorf("MR instability %v", res.MaxMR)
	}
	if tbl == nil || len(tbl.Rows) != len(s.Workloads)+len(s.Sweep) {
		t.Error("fig3 table row count wrong")
	}
}

// reuseScale widens micro with an extra LLC-bound workload, a denser
// sweep and two adversaries so CRG matching finds reuse-rich pairs.
func reuseScale() Scale {
	s := micro()
	s.Workloads = []string{"453.povray", "450.soplex", "433.milc", "470.lbm"}
	s.Sweep = []float64{0.02, 0.1, 0.3, 0.6, 0.9}
	s.AdversariesPerWorkload = 2
	return s
}

func TestFig5AlignmentOrdering(t *testing.T) {
	r := NewRunner(reuseScale())
	res, _, err := Fig5(r)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Good.KLBits <= res.Medium.KLBits && res.Medium.KLBits <= res.Worst.KLBits) {
		t.Fatalf("case ordering broken: %v / %v / %v",
			res.Good.KLBits, res.Medium.KLBits, res.Worst.KLBits)
	}
	// Selected cases must have usable histograms.
	var sum float64
	for _, v := range res.Good.SecondHist {
		sum += v
	}
	if sum == 0 {
		t.Fatal("good case has an empty histogram")
	}
}

func TestFig6BoundsAndRootCause(t *testing.T) {
	r := NewRunner(reuseScale())
	res, tables, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig6 returned %d tables, want 2", len(tables))
	}
	if !(res.Bound99 <= res.Bound95 && res.Bound95 <= res.Bound90) {
		t.Fatalf("bounds out of order: %v %v %v", res.Bound99, res.Bound95, res.Bound90)
	}
	if res.MeanKL < 0 {
		t.Fatal("negative mean KL")
	}
	if len(res.RootCause) == 0 {
		t.Fatal("no root-cause rows")
	}
	// Root-cause shape: the lowest-KL group should carry at least as
	// much LLC traffic as the highest (core-bound → high KL).
	var lowMPKI, highMPKI float64
	var nl, nh int
	for _, rc := range res.RootCause {
		if rc.Group == "low-KL" {
			lowMPKI += rc.LLCMPKI
			nl++
		} else {
			highMPKI += rc.LLCMPKI
			nh++
		}
	}
	if nl == 0 || nh == 0 {
		t.Fatal("root cause missing a group")
	}
}

func TestFig7CoverageMonotonic(t *testing.T) {
	r := NewRunner(micro())
	res, tables, err := Fig7(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("fig7 returned %d tables", len(tables))
	}
	// Wider CRG criteria can only cover more.
	if !(res.Coverage[0] <= res.Coverage[1]+1e-9 && res.Coverage[1] <= res.Coverage[2]+1e-9) {
		t.Fatalf("coverage not monotonic in criterion width: %v", res.Coverage)
	}
	if res.ExperimentRatio < 7.7 || res.ExperimentRatio > 7.9 {
		t.Fatalf("experiment ratio %v, want the paper's 7.79", res.ExperimentRatio)
	}
	for ci := range res.KL {
		for mi, s := range res.KL[ci] {
			if s.Min < 0 {
				t.Fatalf("negative KL for criterion %d metric %d", ci, mi)
			}
		}
	}
}

func TestFig10Proxy(t *testing.T) {
	s := micro()
	s.Sweep = []float64{0.1, 0.9}
	r := NewRunner(s)
	res, tbl, err := Fig10(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != len(fig10Benchmarks) {
		t.Fatalf("got %d benchmarks", len(res.Benchmarks))
	}
	for _, fb := range res.Benchmarks {
		if len(fb.Proxy) != len(fig10Benchmarks)-1 {
			t.Errorf("%s: %d proxy points", fb.Benchmark, len(fb.Proxy))
		}
		if len(fb.PInTE) != len(s.Sweep) {
			t.Errorf("%s: %d pinte points", fb.Benchmark, len(fb.PInTE))
		}
		for _, pt := range fb.Proxy {
			// Eq 6 under a 10-of-11-way cap: occupancy change is
			// bounded below by −100%.
			if pt.X < -100.001 {
				t.Errorf("%s: occupancy change %v below -100%%", fb.Benchmark, pt.X)
			}
		}
	}
	if tbl == nil || len(tbl.Rows) == 0 {
		t.Fatal("empty fig10 table")
	}
}

func TestFig11CaseStudy(t *testing.T) {
	s := micro()
	s.Workloads = []string{"450.soplex", "470.lbm"}
	s.Sweep = []float64{0.05, 0.9}
	r := NewRunner(s)
	res, tables, err := Fig11(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(tables) != 4 {
		t.Fatalf("rows/tables = %d/%d, want 4/4", len(res.Rows), len(tables))
	}
	for _, row := range res.Rows {
		opts := fig11Options(row.Dimension)
		for _, fc := range row.Configs {
			if len(fc.Cells) != len(opts) {
				t.Fatalf("%s: %d cells for %d options", row.Dimension, len(fc.Cells), len(opts))
			}
			var winSum float64
			for _, cell := range fc.Cells {
				winSum += cell.WinShare
			}
			// Win shares sum to 1 (every workload has a winner).
			if winSum < 0.99 || winSum > 1.01 {
				t.Fatalf("%s p=%v: win shares sum to %v", row.Dimension, fc.PInduce, winSum)
			}
			if fc.TieShare < 0 || fc.TieShare > 1 || fc.MultiGoodShare < fc.TieShare {
				t.Fatalf("%s: tie accounting inconsistent: %v/%v",
					row.Dimension, fc.TieShare, fc.MultiGoodShare)
			}
		}
	}
}

func TestExtensionsExperiment(t *testing.T) {
	r := NewRunner(micro())
	res, tables, err := Extensions(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	if len(res.DRAMRows) != len(r.Scale.Workloads) {
		t.Fatalf("dram rows = %d", len(res.DRAMRows))
	}
	// The DRAM extension must deepen the IPC drop for the LLC/DRAM
	// bound workloads (soplex, lbm in the micro set).
	for _, row := range res.DRAMRows {
		if row.Benchmark == "453.povray" {
			continue // core-bound: little memory traffic to inflate
		}
		if row.DropExtended >= row.DropPInTE {
			t.Errorf("%s: DRAM extension did not deepen the drop (%v vs %v)",
				row.Benchmark, row.DropExtended, row.DropPInTE)
		}
	}
}

func TestCapacityCurves(t *testing.T) {
	r := NewRunner(micro())
	res, tbl, err := Capacity(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != len(r.Scale.Workloads) {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Ways) != len(c.WeightedIPC) {
			t.Fatalf("%s: ragged curve", c.Benchmark)
		}
		// Weighted IPC at full allocation is 1 by construction.
		last := c.WeightedIPC[len(c.WeightedIPC)-1]
		if last < 0.999 || last > 1.001 {
			t.Errorf("%s: full-allocation weighted IPC %v", c.Benchmark, last)
		}
		// More capacity never hurts much: the curve should be roughly
		// non-decreasing (allow small simulator noise).
		for i := 1; i < len(c.WeightedIPC); i++ {
			if c.WeightedIPC[i] < c.WeightedIPC[i-1]-0.05 {
				t.Errorf("%s: capacity curve dips at %d ways: %v",
					c.Benchmark, c.Ways[i], c.WeightedIPC)
			}
		}
	}
	if !strings.Contains(tbl.String(), "capacity") {
		t.Error("table id missing")
	}
}

func TestPartitioningExperiment(t *testing.T) {
	s := micro()
	s.Workloads = []string{"450.soplex", "470.lbm"} // one victim, one aggressor
	r := NewRunner(s)
	res, tbl, err := Partitioning(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no partitioning rows")
	}
	for _, row := range res.Rows {
		if row.UCPCR >= row.SharedCR {
			t.Errorf("%s vs %s: UCP contention %v not below shared %v",
				row.Victim, row.Aggressor, row.UCPCR, row.SharedCR)
		}
		if row.TheftCR >= row.SharedCR {
			t.Errorf("%s vs %s: theft-guided contention %v not below shared %v",
				row.Victim, row.Aggressor, row.TheftCR, row.SharedCR)
		}
	}
	if tbl == nil || len(tbl.Rows) != len(res.Rows) {
		t.Fatal("table mismatch")
	}
}

// TestFig6Deterministic pins Fig 6 to its seed: repeated calls on one
// memoized runner see the same results, so every difference would come
// from Fig6 itself (map order feeding the seeded calibration draws, the
// mean's float sum or the ranking's ties).
func TestFig6Deterministic(t *testing.T) {
	r := NewRunner(reuseScale())
	first, _, err := Fig6(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		again, _, err := Fig6(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("call %d differs:\n got %+v\nwant %+v", i+2, again, first)
		}
	}
}
