package runner

import (
	"reflect"
	"testing"

	pinte "repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// planPoints builds the records of cfgs the way RunAll does.
func planPoints(t testing.TB, cfgs []sim.Config, opts Options) []point {
	t.Helper()
	pts, _, bad := newPoints(cfgs, opts)
	for _, re := range bad {
		t.Fatalf("config %d: %v", re.Index, re.Err)
	}
	return pts
}

// planEntries plans cfgs the way RunAll does and returns the entries.
func planEntries(t *testing.T, cfgs []sim.Config, admit func(int) executor, opts Options, substituted bool) []entry {
	t.Helper()
	pts := planPoints(t, cfgs, opts)
	plan(pts, admit, opts, substituted)
	return entries(pts)
}

// entries lists the records' plan entries.
func entries(pts []point) []entry {
	e := make([]entry, len(pts))
	for i := range pts {
		e[i] = pts[i].entry
	}
	return e
}

// TestPlanAdmission covers the executors decided before any fast path:
// unhashable, store hit (a resumed config), in flight and a plain miss.
// The admission lookup is consulted only for hashable configs.
func TestPlanAdmission(t *testing.T) {
	cfgs := []sim.Config{
		tinyCfg("433.milc", 0.1), tinyCfg("433.milc", 0.2), tinyCfg("433.milc", 0.3),
		tinyCfg("433.milc", 0.4), tinyCfg("433.milc", 0.5),
	}
	pts := planPoints(t, cfgs, Options{})
	pts[0].key = "" // unhashable
	var asked []int
	admit := func(i int) executor {
		asked = append(asked, i)
		return map[int]executor{2: execStore, 3: execFlight}[i]
	}
	plan(pts, admit, Options{}, false)
	got := entries(pts)
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
	if got := planEntries(t, cfgs, nil, Options{}, false)[2]; got.exec != execFull {
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
			got := planEntries(t, cfgs, nil, Options{Sample: true}, false)
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
	pts := planPoints(t, cfgs, Options{Sample: true})
	profiles := plan(pts, nil, Options{Sample: true}, false)
	for i, en := range entries(pts) {
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
	if g := groups(pts, execSampled); len(g) != 3 || len(g[0]) != 13 {
		t.Errorf("profile groups = %v, want 3 with the sweep's 13 configs in the first", g)
	}
	for g, want := range []int{0, 13, 14} {
		if p := profiles[g]; !reflect.DeepEqual(p, profileConfig(cfgs[want])) {
			t.Errorf("group %d profiles %+v, want the projection of config %d", g, p, want)
		}
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
	stored := func(i int) executor { return map[int]executor{4: execStore}[i] }
	e := planEntries(t, cfgs, stored, Options{Fanout: true}, false)
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
		e := planEntries(t, cfgs[:3], admit, Options{Fanout: true}, false)
		if e[0].why != whyFanPartial || e[2].why != whyFanPartial || e[0].exec != execFull {
			t.Errorf("admission %d: plan = %+v, want the rest partial on the full path", x, e)
		}
	}

	// Five points, groups of at most two: 2 + 2 + a leftover singleton.
	cfgs = nil
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		cfgs = append(cfgs, tinyCfg("453.povray", p))
	}
	pts := planPoints(t, cfgs, Options{})
	plan(pts, nil, Options{Fanout: true, FanMaxGroup: 2}, false)
	if g := groups(pts, execFan); !reflect.DeepEqual(g, [][]int{{0, 1}, {2, 3}}) {
		t.Errorf("chunks = %v, want [[0 1] [2 3]]", g)
	}
	if want := (entry{exec: execFull, why: whyFanSingleton}); pts[4].entry != want {
		t.Errorf("leftover = %+v, want %+v", pts[4].entry, want)
	}
	// FanMaxGroup below 2 means unlimited.
	pts = planPoints(t, cfgs, Options{})
	plan(pts, nil, Options{Fanout: true, FanMaxGroup: 1}, false)
	if g := groups(pts, execFan); len(g) != 1 || len(g[0]) != 5 {
		t.Errorf("FanMaxGroup 1 groups = %v, want one group of 5", g)
	}
}

// TestPlanSampleWinsAndSubstitutedSimulator: with both fast paths asked
// for, sampling wins; with a substituted simulator neither stage runs.
func TestPlanSampleWinsAndSubstitutedSimulator(t *testing.T) {
	cfgs := []sim.Config{tinyCfg("453.povray", 0.1), tinyCfg("453.povray", 0.2)}
	both := Options{Sample: true, Fanout: true}
	for _, en := range planEntries(t, cfgs, nil, both, false) {
		if en.exec != execSampled {
			t.Errorf("Sample+Fanout planned %+v, want a sampled candidate", en)
		}
	}
	for _, opts := range []Options{both, {Sample: true}, {Fanout: true}} {
		for _, en := range planEntries(t, cfgs, nil, opts, true) {
			if want := (entry{exec: execFull, why: whySubstituted}); en != want {
				t.Errorf("substituted simulator with %+v planned %+v, want %+v", opts, en, want)
			}
		}
	}
	for _, en := range planEntries(t, cfgs, nil, Options{}, true) {
		if want := (entry{exec: execFull, why: whyDefault}); en != want {
			t.Errorf("no fast path planned %+v, want %+v", en, want)
		}
	}
}

// sweepGrid is the benchmark's 63-config sweep: four presets ×
// isolation, the 12 P_Induce points and one 2nd-Trace pairing, plus a
// prefetching preset with six points.
func sweepGrid() []sim.Config {
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
	return cfgs
}

// sampledGrid is the benchmark's 221-config sampled sweep: isolation
// and the 12 P_Induce points on every third preset in name order.
func sampledGrid() []sim.Config {
	base := sim.Config{WarmupInstrs: 20_000, ROIInstrs: 50_000, Seed: 1}
	var cfgs []sim.Config
	for i, w := range trace.Names() {
		if i%3 != 0 {
			continue
		}
		c := base
		c.Workload = w
		cfgs = append(cfgs, c)
		for _, p := range pinte.DefaultSweep() {
			c := base
			c.Workload, c.Mode, c.PInduce = w, sim.PInTE, p
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// TestPlanSweepFanGrid pins the fan-out grouping of the benchmark's
// 63-config sweep: one group per preset, five in all, and every config
// in exactly one entry.
func TestPlanSweepFanGrid(t *testing.T) {
	cfgs := sweepGrid()
	if len(cfgs) != 63 {
		t.Fatalf("grid has %d configs, want 63", len(cfgs))
	}
	pts := planPoints(t, cfgs, Options{})
	plan(pts, nil, Options{Fanout: true}, false)
	g := groups(pts, execFan)
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

// TestPlanDerivesOnce guards the records' derive-once rule: building the
// records and planning the benchmark's sampled and fan-out sweeps may
// encode each config's key once plus its one group key (profile or fan
// group), and a few allocations per campaign for the records and the
// planner's maps. A stage that re-derives a key per config fails it.
func TestPlanDerivesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	keyAllocs := func(f func() error) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const slack = 48 // per campaign: the records and the planner's maps and lists
	for _, tc := range []struct {
		name   string
		cfgs   []sim.Config
		opts   Options
		groups int
		// group encodes one config's group key.
		group func(sim.Config) error
	}{
		{"sampled", sampledGrid(), Options{Sample: true, Streams: replay.NewCache(0)}, 17,
			func(c sim.Config) error { _, err := ConfigKey(profileConfig(c)); return err }},
		{"fan", sweepGrid(), Options{Fanout: true, Streams: replay.NewCache(0)}, 5,
			func(c sim.Config) error { _, err := sim.FanGroupKey(c); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.cfgs[1]
			perConfig := keyAllocs(func() error { _, err := ConfigKey(c); return err }) +
				keyAllocs(func() error { return tc.group(c) })
			budget := perConfig*float64(len(tc.cfgs)) + slack
			var pts []point
			var profiles []sim.Config
			got := testing.AllocsPerRun(10, func() {
				pts = planPoints(t, tc.cfgs, tc.opts)
				profiles = plan(pts, nil, tc.opts, false)
			})
			if ng := len(profiles) + len(groups(pts, execFan)); ng != tc.groups {
				t.Fatalf("%d groups planned, want %d", ng, tc.groups)
			}
			t.Logf("%d configs: %.0f allocs, budget %.0f (%.0f per config)", len(tc.cfgs), got, budget, perConfig)
			if got > budget {
				t.Errorf("building the records and planning took %.0f allocs, budget %.0f: a stage re-derives a per-config key", got, budget)
			}
		})
	}
}
