package runner

import (
	"reflect"
	"testing"

	pinte "repro/internal/core"
	"repro/internal/sim"
)

// planKeys keys cfgs the way RunAll does.
func planKeys(t *testing.T, cfgs []sim.Config) []string {
	t.Helper()
	keys := make([]string, len(cfgs))
	for i, c := range cfgs {
		k, err := ConfigKey(c)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

// TestPlanAdmission covers the executors decided before any fast path:
// unhashable, store hit (a resumed config), in flight and a plain miss.
// The admission lookup is consulted only for hashable configs.
func TestPlanAdmission(t *testing.T) {
	cfgs := []sim.Config{
		tinyCfg("433.milc", 0.1), tinyCfg("433.milc", 0.2), tinyCfg("433.milc", 0.3),
		tinyCfg("433.milc", 0.4), tinyCfg("433.milc", 0.5),
	}
	keys := planKeys(t, cfgs)
	keys[0] = "" // unhashable
	var asked []int
	admit := func(i int) executor {
		asked = append(asked, i)
		return map[int]executor{2: execStore, 3: execFlight}[i]
	}
	got := plan(cfgs, keys, admit, Options{}, false)
	want := []entry{
		{exec: execUnhashable, why: whyUnhashable},
		{exec: execFull, why: whyDefault},
		{exec: execStore, why: whyStoreHit},
		{exec: execFlight, why: whyInFlight},
		{exec: execFull, why: whyDefault},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan = %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(asked, []int{1, 2, 3, 4}) {
		t.Errorf("admission asked about %v, want [1 2 3 4]", asked)
	}
	if got := plan(cfgs, keys, nil, Options{}, false)[2]; got.exec != execFull {
		t.Errorf("without a store a config runs full, got %+v", got)
	}
}

// TestPlanSampleEligibility: every sim.SampleEligible refusal stays on
// the full path with its reason, and the eligible points of a 12-point
// P_Induce sweep plus its baseline share one profile group per
// (workload, budgets, seed).
func TestPlanSampleEligibility(t *testing.T) {
	refusals := map[string]func(*sim.Config){
		"2nd-trace":    func(c *sim.Config) { c.Mode, c.Adversary = sim.SecondTrace, "470.lbm" },
		"partitioning": func(c *sim.Config) { c.Partitioning = "ucp" },
		"way-alloc":    func(c *sim.Config) { c.LLCWayAllocation = 4 },
		"independent":  func(c *sim.Config) { c.IndependentPeriod = 1000 },
		"dram":         func(c *sim.Config) { c.DRAMContentionProb = 0.5 },
		"telemetry":    func(c *sim.Config) { c.TelemetryEvery = 10_000 },
	}
	for name, mut := range refusals {
		t.Run(name, func(t *testing.T) {
			c := tinyCfg("403.gcc", 0.3)
			mut(&c)
			cfgs := []sim.Config{c}
			got := plan(cfgs, planKeys(t, cfgs), nil, Options{Sample: true}, false)
			if want := (entry{exec: execFull, why: whySampleIneligible}); got[0] != want {
				t.Errorf("plan = %+v, want %+v", got[0], want)
			}
		})
	}

	base := tinyCfg("403.gcc", 0)
	base.Mode = sim.Isolation
	cfgs := []sim.Config{base}
	for _, p := range pinte.DefaultSweep() {
		cfgs = append(cfgs, tinyCfg("403.gcc", p))
	}
	if len(cfgs) != 13 {
		t.Fatalf("sweep has %d configs, want 13", len(cfgs))
	}
	other := tinyCfg("470.lbm", 0.3)
	reseeded := tinyCfg("403.gcc", 0.3)
	reseeded.Seed = 2
	cfgs = append(cfgs, other, reseeded)
	e := plan(cfgs, planKeys(t, cfgs), nil, Options{Sample: true}, false)
	for i, en := range e {
		wantGroup := int32(0)
		switch i {
		case 13:
			wantGroup = 1
		case 14:
			wantGroup = 2
		}
		if want := (entry{exec: execSampled, why: whyProfiled, group: wantGroup}); en != want {
			t.Errorf("config %d: plan = %+v, want %+v", i, en, want)
		}
	}
	if g := groups(e, execSampled); len(g) != 3 || len(g[0]) != 13 {
		t.Errorf("profile groups = %v, want 3 with the sweep's 13 configs in the first", g)
	}
}

// TestPlanFanGroups covers the fan-out grouping rules: a whole group,
// a lone config, a partial group whose stream-mate is stored, and
// FanMaxGroup chunking with its leftover singleton.
func TestPlanFanGroups(t *testing.T) {
	var cfgs []sim.Config
	for _, p := range []float64{0.1, 0.2, 0.3} {
		cfgs = append(cfgs, tinyCfg("453.povray", p)) // 0-2: one group
	}
	cfgs = append(cfgs, tinyCfg("470.lbm", 0.1)) // 3: alone on its stream
	for _, p := range []float64{0.1, 0.2} {
		cfgs = append(cfgs, tinyCfg("450.soplex", p)) // 4-5: 4 is stored
	}
	keys := planKeys(t, cfgs)
	stored := func(i int) executor { return map[int]executor{4: execStore}[i] }
	e := plan(cfgs, keys, stored, Options{Fanout: true}, false)
	want := []entry{
		{exec: execFan, why: whyFanned, group: 0},
		{exec: execFan, why: whyFanned, group: 0},
		{exec: execFan, why: whyFanned, group: 0},
		{exec: execFull, why: whyFanSingleton},
		{exec: execStore, why: whyStoreHit},
		{exec: execFull, why: whyFanPartial},
	}
	if !reflect.DeepEqual(e, want) {
		t.Errorf("plan = %+v\nwant %+v", e, want)
	}

	// A stream-mate in the store or in flight makes the group partial too.
	for _, x := range []executor{execStore, execFlight} {
		admit := func(i int) executor {
			if i == 1 {
				return x
			}
			return execFull
		}
		e := plan(cfgs[:3], keys[:3], admit, Options{Fanout: true}, false)
		if e[0].why != whyFanPartial || e[2].why != whyFanPartial || e[0].exec != execFull {
			t.Errorf("admission %d: plan = %+v, want the rest partial on the full path", x, e)
		}
	}

	// Five points, groups of at most two: 2 + 2 + a leftover singleton.
	cfgs = nil
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		cfgs = append(cfgs, tinyCfg("453.povray", p))
	}
	e = plan(cfgs, planKeys(t, cfgs), nil, Options{Fanout: true, FanMaxGroup: 2}, false)
	if g := groups(e, execFan); !reflect.DeepEqual(g, [][]int{{0, 1}, {2, 3}}) {
		t.Errorf("chunks = %v, want [[0 1] [2 3]]", g)
	}
	if want := (entry{exec: execFull, why: whyFanSingleton}); e[4] != want {
		t.Errorf("leftover = %+v, want %+v", e[4], want)
	}
	// FanMaxGroup below 2 means unlimited.
	e = plan(cfgs, planKeys(t, cfgs), nil, Options{Fanout: true, FanMaxGroup: 1}, false)
	if g := groups(e, execFan); len(g) != 1 || len(g[0]) != 5 {
		t.Errorf("FanMaxGroup 1 groups = %v, want one group of 5", g)
	}
}

// TestPlanSampleWinsAndSubstitutedSimulator: with both fast paths asked
// for, sampling wins; with a substituted simulator neither stage runs.
func TestPlanSampleWinsAndSubstitutedSimulator(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("453.povray", 0.1), tinyCfg("453.povray", 0.2)}
	keys := planKeys(t, cfgs)
	both := Options{Sample: true, Fanout: true}
	for _, en := range plan(cfgs, keys, nil, both, false) {
		if en.exec != execSampled {
			t.Errorf("Sample+Fanout planned %+v, want a sampled candidate", en)
		}
	}
	for _, opts := range []Options{both, {Sample: true}, {Fanout: true}} {
		for _, en := range plan(cfgs, keys, nil, opts, true) {
			if want := (entry{exec: execFull, why: whySubstituted}); en != want {
				t.Errorf("substituted simulator with %+v planned %+v, want %+v", opts, en, want)
			}
		}
	}
	for _, en := range plan(cfgs, keys, nil, Options{}, true) {
		if want := (entry{exec: execFull, why: whyDefault}); en != want {
			t.Errorf("no fast path planned %+v, want %+v", en, want)
		}
	}
}

// TestPlanSweepFanGrid pins the fan-out grouping of the benchmark's
// 63-config sweep (four presets × isolation, the 12 P_Induce points and
// one 2nd-Trace pairing, plus a prefetching preset with six points): one
// group per preset, five in all, and every config in exactly one entry.
func TestPlanSweepFanGrid(t *testing.T) {
	base := sim.Config{WarmupInstrs: 20_000, ROIInstrs: 50_000, Seed: 1}
	var cfgs []sim.Config
	for _, w := range []string{"453.povray", "450.soplex", "470.lbm", "403.gcc"} {
		c := base
		c.Workload = w
		cfgs = append(cfgs, c)
		for _, p := range pinte.DefaultSweep() {
			c := base
			c.Workload, c.Mode, c.PInduce = w, sim.PInTE, p
			cfgs = append(cfgs, c)
		}
		c = base
		c.Workload, c.Mode, c.Adversary = w, sim.SecondTrace, "470.lbm"
		cfgs = append(cfgs, c)
	}
	c := base
	c.Workload = "433.milc"
	c.Hier.Prefetch = "0IN"
	cfgs = append(cfgs, c)
	for _, p := range []float64{0.01, 0.05, 0.10, 0.30, 0.70, 1.0} {
		c := c
		c.Mode, c.PInduce = sim.PInTE, p
		cfgs = append(cfgs, c)
	}
	if len(cfgs) != 63 {
		t.Fatalf("grid has %d configs, want 63", len(cfgs))
	}
	e := plan(cfgs, planKeys(t, cfgs), nil, Options{Fanout: true}, false)
	if len(e) != len(cfgs) {
		t.Fatalf("%d entries for %d configs", len(e), len(cfgs))
	}
	g := groups(e, execFan)
	var want [][]int
	for _, span := range [][2]int{{0, 14}, {14, 28}, {28, 42}, {42, 56}, {56, 63}} {
		var members []int
		for i := span[0]; i < span[1]; i++ {
			members = append(members, i)
		}
		want = append(want, members)
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("fan groups = %v\nwant %v", g, want)
	}
}
