package expt

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
)

// micro returns the smallest scale that still exercises every experiment
// code path: 3 workloads across the behavioural corners, 2-point sweep.
func micro() Scale {
	return Scale{
		Warmup:                 70_000,
		ROI:                    200_000,
		SampleEvery:            25_000,
		Workloads:              []string{"453.povray", "450.soplex", "470.lbm"},
		AdversariesPerWorkload: 1,
		Sweep:                  []float64{0.05, 0.5},
		Reruns:                 2,
		Seed:                   1,
	}
}

func TestScaleByName(t *testing.T) {
	for _, n := range []string{"tiny", "small", "full"} {
		s, err := ByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if len(s.Workloads) == 0 || len(s.Sweep) == 0 {
			t.Errorf("%s: empty scale", n)
		}
	}
	if _, err := ByName("huge"); err == nil {
		t.Error("unknown scale accepted")
	}
	if got := len(Full().Workloads); got != 49 {
		t.Errorf("full scale has %d workloads, want 49", got)
	}
	if got := len(Full().Sweep); got != 12 {
		t.Errorf("full scale sweep has %d points, want 12", got)
	}
}

func TestAdversariesRotation(t *testing.T) {
	s := micro()
	s.AdversariesPerWorkload = 2
	for _, w := range s.Workloads {
		advs := s.Adversaries(w)
		if len(advs) != 2 {
			t.Fatalf("%s: %d adversaries, want 2", w, len(advs))
		}
		for _, a := range advs {
			if a == w {
				t.Fatalf("%s paired with itself", w)
			}
		}
	}
	// Different primaries get different adversary sets (rotation).
	a0 := s.Adversaries(s.Workloads[0])
	a1 := s.Adversaries(s.Workloads[1])
	if a0[0] == a1[0] && a0[1] == a1[1] {
		t.Error("rotation not spreading adversaries")
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(micro())
	cfg := r.Iso("453.povray")
	a, err := r.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical config not memoized (distinct pointers)")
	}
	// A different PInduce is a different key.
	c, err := r.Get(r.Pinte("453.povray", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct configs shared a memo entry")
	}
}

// TestMemoKeyAdHocSpecByContent is the regression test for the ad-hoc
// spec memo-key bug: keys used to embed the spec's pointer
// (fmt.Sprintf("%p", ...)), so mutating a spec in place silently
// recalled the stale result, while rebuilding an identical spec at a new
// address missed the memo. Keys must follow spec content, not identity.
func TestMemoKeyAdHocSpecByContent(t *testing.T) {
	r := NewRunner(micro())
	spec := trace.MustLookup("453.povray").Spec
	cfg := r.Iso("453.povray")
	cfg.WorkloadSpec = &spec

	before := memoKey(t, cfg)
	spec.MemFrac += 0.01 // mutate through the same pointer
	if after := memoKey(t, cfg); after == before {
		t.Fatal("memo key ignored an in-place spec mutation (pointer keying)")
	}

	// Equal content at distinct addresses must share one memo slot.
	clone := spec
	cfg2 := cfg
	cfg2.WorkloadSpec = &clone
	if memoKey(t, cfg) != memoKey(t, cfg2) {
		t.Fatal("identical ad-hoc specs at different addresses keyed differently")
	}
	a, err := r.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Get(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical ad-hoc specs did not share a memo entry")
	}
}

// memoKey is the key the runner memoizes cfg under.
func memoKey(t *testing.T, cfg sim.Config) string {
	t.Helper()
	k, err := runner.ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// resultJSON is a result's identity with its wall time removed.
func resultJSON(t *testing.T, r *sim.Result) string {
	t.Helper()
	cp := *r
	cp.WallTime = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMemoKeyCoversWholeConfig: configs that differ only in their core
// timing get distinct memo entries, each byte-equal to running the
// config alone.
func TestMemoKeyCoversWholeConfig(t *testing.T) {
	r := NewRunner(micro())
	iso := r.Iso("470.lbm")
	wide := iso
	wide.CPU.MLP = 8
	for _, cfg := range []sim.Config{iso, wide} {
		got, err := r.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resultJSON(t, got) != resultJSON(t, want) {
			t.Fatalf("MLP=%d: memoized IPC %v, sim.Run gives %v", cfg.CPU.MLP, got.IPC, want.IPC)
		}
	}
}

func TestRunnerGetAllOrder(t *testing.T) {
	r := NewRunner(micro())
	cfgs := []sim.Config{
		r.Iso("450.soplex"),
		r.Iso("453.povray"),
		r.Iso("450.soplex"), // duplicate
	}
	res, err := r.GetAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != res[2] {
		t.Fatal("duplicate configs returned different results")
	}
	if res[0] == res[1] {
		t.Fatal("different configs returned the same result")
	}
}

func TestRegistryCoversDesignIndex(t *testing.T) {
	want := []string{"table1", "table2", "fig1", "fig2", "fig3", "fig5",
		"fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if _, err := Lookup("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig2Deterministic(t *testing.T) {
	a, _, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if a.RealTheftsCore1Experienced != b.RealTheftsCore1Experienced ||
		a.InducedThefts != b.InducedThefts || a.MockThefts != b.MockThefts {
		t.Fatal("fig2 walkthrough not deterministic")
	}
	if a.RealTheftsCore1Experienced == 0 {
		t.Error("no real thefts in walkthrough")
	}
	if a.InducedThefts == 0 || a.MockThefts == 0 {
		t.Error("no induced/mock thefts in walkthrough")
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	r := NewRunner(micro())
	res, tbl, err := Fig1(r)
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil || len(tbl.Rows) != 10 {
		t.Fatal("fig1 table malformed")
	}
	var secondTotal, pinTotal int
	for b := 0; b < 10; b++ {
		secondTotal += res.SecondTrace[b]
		pinTotal += res.PInTE[b]
	}
	if secondTotal == 0 || pinTotal == 0 {
		t.Fatal("fig1 counted no experiments")
	}
}

func TestTable2Produces(t *testing.T) {
	r := NewRunner(micro())
	res, tbl, err := Table2(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	if !strings.Contains(tbl.String(), "AVG All") {
		t.Error("missing All average row")
	}
	// At least one workload must have found a CRG match.
	matched := 0
	for _, row := range res.Rows {
		matched += row.Matched
	}
	if matched == 0 {
		t.Error("no CRG matches at micro scale")
	}
}

func TestClampErr(t *testing.T) {
	if clampErr(1e9) != 200 || clampErr(-1e9) != -200 {
		t.Error("clamp bounds wrong")
	}
	if clampErr(5) != 5 {
		t.Error("clamp distorted a normal value")
	}
}

func TestFig8Classification(t *testing.T) {
	r := NewRunner(micro())
	res, _, err := Fig8(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 3 {
		t.Fatalf("got %d workloads", len(res.Workloads))
	}
	byName := map[string]Fig8Workload{}
	for _, fw := range res.Workloads {
		byName[fw.Benchmark] = fw
	}
	// The core-bound workload must not classify as highly sensitive.
	if povray := byName["453.povray"]; povray.PInTEClass.String() == "high" {
		t.Errorf("povray classified high sensitivity (SCP %.0f%%)", 100*povray.PInTESCP)
	}
	// The LLC-bound pointer-chaser must show sensitivity.
	if soplex := byName["450.soplex"]; soplex.PInTESCP == 0 {
		t.Error("soplex shows zero sensitivity")
	}
}

func TestFig9ReportsAllBenchmarks(t *testing.T) {
	r := NewRunner(micro())
	res, _, err := Fig9(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Isolation <= 0 {
			t.Errorf("%s: zero isolation AMAT", row.Benchmark)
		}
		if row.PInTE.N == 0 || row.Second.N == 0 {
			t.Errorf("%s: empty AMAT summaries", row.Benchmark)
		}
	}
}

func TestRandomKLBoundsOrdering(t *testing.T) {
	refs := [][]float64{{10, 5, 2, 1, 0, 0, 0, 0}}
	b99, b95, b90 := randomKLBounds(refs, 200, 7)
	if !(b99 <= b95 && b95 <= b90) {
		t.Fatalf("percentile bounds out of order: %v %v %v", b99, b95, b90)
	}
	if b99 <= 0 {
		t.Fatal("calibration bound not positive")
	}
}

func TestSampleMetricPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown metric index accepted")
		}
	}()
	sampleMetric(sim.Sample{}, 99)
}
