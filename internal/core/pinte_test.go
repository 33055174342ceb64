package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/replacement"
)

func demoCache(t testing.TB, sets, ways int, policy string) *cache.Cache {
	t.Helper()
	return cache.MustNew(cache.Config{
		Name:      "llc",
		SizeBytes: sets * ways * cache.BlockBytes,
		Ways:      ways,
		Policy:    replacement.MustNew(policy, 99),
		Cores:     1,
	})
}

// drive performs n demand accesses over a footprint of blocks.
func drive(c *cache.Cache, n, blocks int) {
	for i := 0; i < n; i++ {
		addr := uint64(i%blocks) * cache.BlockBytes
		if !c.Lookup(addr, 0, false) {
			c.Fill(addr, 0, false, false)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.Inf(1)} {
		if _, err := NewEngine(Params{PInduce: p}); err == nil {
			t.Errorf("PInduce %v accepted", p)
		}
	}
	if _, err := NewEngine(Params{PInduce: 0.5}); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestTriggerRateTracksPInduce(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		c := demoCache(t, 16, 8, "lru")
		e := MustNewEngine(Params{PInduce: p, Seed: 5})
		c.SetInjector(e)
		drive(c, 20_000, 4096)
		got := e.Stats.TriggerRate()
		if math.Abs(got-p) > 0.02 {
			t.Errorf("PInduce %v: trigger rate %v", p, got)
		}
	}
}

// TestTriggerFiresEndpoints pins the trigger comparison at both
// endpoints of the probability range. The regression it guards: a
// non-strict comparison (draw > p exits, so draw <= p fires) lets an
// exact-zero draw inject a theft even when P_Induce = 0, breaking the
// invariant that a zero-probability engine is bit-identical to no
// engine at all.
func TestTriggerFiresEndpoints(t *testing.T) {
	almostOne := math.Nextafter(1, 0)
	cases := []struct {
		draw, p float64
		want    bool
	}{
		{0, 0, false},         // the off-by-epsilon this fixes
		{almostOne, 0, false}, // P_Induce = 0 never fires
		{0, 1, true},          // P_Induce = 1 always fires...
		{almostOne, 1, true},  // ...for every draw in [0, 1)
		{0.29, 0.3, true},
		{0.3, 0.3, false}, // a draw equal to p sits outside [0, p)
		{0.31, 0.3, false},
	}
	for _, c := range cases {
		if got := triggerFires(c.draw, c.p); got != c.want {
			t.Errorf("triggerFires(%v, %v) = %v, want %v", c.draw, c.p, got, c.want)
		}
	}
}

func TestZeroPInduceIsInert(t *testing.T) {
	c := demoCache(t, 16, 8, "lru")
	e := MustNewEngine(Params{PInduce: 0, Seed: 1})
	c.SetInjector(e)
	drive(c, 10_000, 512)
	if e.Stats.Triggers != 0 || e.Stats.Invalidations != 0 {
		t.Fatalf("engine acted at PInduce 0: %+v", e.Stats)
	}
	if c.Stats.InducedThefts[0] != 0 {
		t.Fatal("cache recorded induced thefts at PInduce 0")
	}
}

func TestInducedTheftsScaleWithPInduce(t *testing.T) {
	rates := make([]float64, 0, 3)
	for _, p := range []float64{0.1, 0.5, 1.0} {
		c := demoCache(t, 16, 8, "lru")
		e := MustNewEngine(Params{PInduce: p, Seed: 7})
		c.SetInjector(e)
		drive(c, 30_000, 4096)
		rates = append(rates, c.Stats.ContentionRate(0))
	}
	if !(rates[0] < rates[1] && rates[1] < rates[2]) {
		t.Fatalf("contention rate not monotonic in PInduce: %v", rates)
	}
}

func TestEvictBudgetBounded(t *testing.T) {
	c := demoCache(t, 4, 8, "lru")
	e := MustNewEngine(Params{PInduce: 1, Seed: 9})
	c.SetInjector(e)
	drive(c, 5_000, 256)
	if e.Stats.Triggers == 0 {
		t.Fatal("no triggers at PInduce 1")
	}
	avg := float64(e.Stats.EvictBudget) / float64(e.Stats.Triggers)
	// Uniform draw over [0, ways] has mean ways/2 = 4.
	if avg < 3 || avg > 5 {
		t.Errorf("mean eviction budget %v, want ≈4", avg)
	}
}

func TestStateMachineShape(t *testing.T) {
	c := demoCache(t, 4, 4, "lru")
	e := MustNewEngine(Params{PInduce: 1, Seed: 11})
	var events []Event
	e.Trace = func(ev Event) { events = append(events, ev) }
	c.SetInjector(e)
	drive(c, 200, 64)

	// Legal transitions per Fig 4.
	legal := map[State][]State{
		StateGenProbability: {StateGenEvictCnt, StateExit},
		StateGenEvictCnt:    {StateBlockSelect, StateExit},
		StateBlockSelect:    {StatePromote, StateBlockSelect, StateExit},
		StatePromote:        {StateInvalidate, StateDecrement},
		StateInvalidate:     {StateDecrement},
		StateDecrement:      {StateBlockSelect, StateExit},
	}
	for i := 0; i+1 < len(events); i++ {
		cur, next := events[i].State, events[i+1].State
		if cur == StateExit {
			continue
		}
		// A new access always starts at GEN-PROBABILITY; accept it as
		// a successor of any terminal position.
		if next == StateGenProbability {
			continue
		}
		ok := false
		for _, s := range legal[cur] {
			if s == next {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("illegal transition %v -> %v at %d", cur, next, i)
		}
	}
	if e.Stats.StateVisits[StateGenProbability] == 0 ||
		e.Stats.StateVisits[StatePromote] == 0 {
		t.Fatalf("state machine did not exercise core states: %v", e.Stats.StateVisits)
	}
}

func TestEngineDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) (Stats, float64) {
		c := demoCache(t, 16, 8, "lru")
		e := MustNewEngine(Params{PInduce: 0.5, Seed: seed})
		c.SetInjector(e)
		drive(c, 20_000, 2048)
		return e.Stats, c.Stats.ContentionRate(0)
	}
	s1, r1 := run(3)
	s2, r2 := run(3)
	if s1 != s2 || r1 != r2 {
		t.Fatal("same seed produced different engine behaviour")
	}
	s3, _ := run(4)
	if s1.Triggers == s3.Triggers && s1.EvictBudget == s3.EvictBudget {
		t.Fatal("different seeds produced identical trigger streams")
	}
}

func TestEngineWorksUnderEveryPolicy(t *testing.T) {
	for _, pol := range replacement.Names() {
		c := demoCache(t, 16, 8, pol)
		e := MustNewEngine(Params{PInduce: 0.8, Seed: 13})
		c.SetInjector(e)
		drive(c, 30_000, 4096)
		if c.Stats.InducedThefts[0] == 0 {
			t.Errorf("%s: no induced thefts at PInduce 0.8", pol)
		}
		if c.Stats.MockThefts[0] == 0 {
			t.Errorf("%s: no mock thefts recorded", pol)
		}
	}
}

// TestInvariantsQuick: under arbitrary access patterns and PInduce, the
// engine never invalidates more blocks than it promotes, and every
// invalidation corresponds to an induced theft in the cache.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed uint64, pRaw uint8, pattern []uint16) bool {
		p := float64(pRaw%101) / 100
		c := cache.MustNew(cache.Config{
			Name:      "llc",
			SizeBytes: 8 * 4 * cache.BlockBytes,
			Ways:      4,
			Cores:     1,
		})
		e := MustNewEngine(Params{PInduce: p, Seed: seed})
		c.SetInjector(e)
		for _, v := range pattern {
			addr := uint64(v%512) * cache.BlockBytes
			if !c.Lookup(addr, 0, v%5 == 0) {
				c.Fill(addr, 0, false, false)
			}
		}
		if e.Stats.Invalidations > e.Stats.Promotions {
			return false
		}
		if c.Stats.InducedThefts[0] != e.Stats.Invalidations {
			return false
		}
		return e.Stats.Triggers <= e.Stats.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDirtyInvalidationReachesSink(t *testing.T) {
	c := demoCache(t, 4, 4, "lru")
	var wb int
	c.SetWritebackSink(func(uint64) { wb++ })
	e := MustNewEngine(Params{PInduce: 1, Seed: 17})
	c.SetInjector(e)
	for i := 0; i < 2_000; i++ {
		addr := uint64(i%64) * cache.BlockBytes
		if !c.Lookup(addr, 0, true) {
			c.Fill(addr, 0, true, false)
		}
	}
	if wb == 0 {
		t.Fatal("dirty PInTE invalidations never reached the writeback sink")
	}
}

func TestDefaultSweepShape(t *testing.T) {
	sw := DefaultSweep()
	if len(sw) != 12 {
		t.Fatalf("sweep has %d points, want 12 (paper)", len(sw))
	}
	for i, p := range sw {
		if p < 0 || p > 1 {
			t.Errorf("sweep[%d] = %v outside [0,1]", i, p)
		}
		if i > 0 && p <= sw[i-1] {
			t.Errorf("sweep not strictly increasing at %d", i)
		}
	}
	// The case-study axis points the paper names (7.5% and 70%).
	has := func(v float64) bool {
		for _, p := range sw {
			if p == v {
				return true
			}
		}
		return false
	}
	if !has(0.075) || !has(0.70) {
		t.Error("sweep missing the paper's named configurations 7.5% / 70%")
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateUpdateAccess:   "UPDATE-ACCESS",
		StateGenProbability: "GEN-PROBABILITY",
		StateGenEvictCnt:    "GEN-EVICT-CNT",
		StateBlockSelect:    "BLOCK-SELECT",
		StatePromote:        "PROMOTE",
		StateInvalidate:     "INVALIDATE",
		StateDecrement:      "DECREMENT",
		StateExit:           "EXIT",
	}
	for s, n := range want {
		if s.String() != n {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), n)
		}
	}
}

// TestBudgetDeliveredAcrossPolicies: at full trigger rate on a warm
// cache, the mean number of blocks invalidated per trigger must be near
// the mean drawn budget (ways/2) for every policy — the BLOCK-SELECT
// rescan guarantee. Without the rescan, pLRU and RRIP silently drop most
// of the budget because promotions move the stack end behind the scan
// pointer.
func TestBudgetDeliveredAcrossPolicies(t *testing.T) {
	for _, pol := range replacement.Names() {
		c := demoCache(t, 16, 8, pol)
		e := MustNewEngine(Params{PInduce: 1, Seed: 21})
		c.SetInjector(e)
		drive(c, 30_000, 8192)
		perTrigger := float64(e.Stats.Invalidations) / float64(e.Stats.Triggers)
		// On a miss-every-access stream at P_Induce 1, steady-state
		// delivery is bounded by the refill rate: one fill lands
		// between consecutive triggers, so at most ~1 valid block is
		// available per trigger regardless of the drawn budget. The
		// test asserts delivery sits at that ceiling for every policy;
		// pre-rescan, pLRU managed only ~0.04 per trigger.
		if perTrigger < 0.75 {
			t.Errorf("%s: %.2f invalidations per trigger; budget not delivered", pol, perTrigger)
		}
	}
}

// TestPolicyContentionRatesComparable: at equal P_Induce, the induced
// contention rate must be in the same ballpark for all policies (the
// cross-policy comparability Fig 11 depends on).
func TestPolicyContentionRatesComparable(t *testing.T) {
	rates := map[string]float64{}
	for _, pol := range replacement.Names() {
		c := demoCache(t, 16, 8, pol)
		e := MustNewEngine(Params{PInduce: 0.5, Seed: 23})
		c.SetInjector(e)
		drive(c, 40_000, 8192)
		rates[pol] = c.Stats.ContentionRate(0)
	}
	min, max := 2.0, 0.0
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min <= 0 {
		t.Fatalf("a policy induced no contention: %v", rates)
	}
	if max/min > 4 {
		t.Errorf("contention rates differ >4x across policies: %v", rates)
	}
}

// TestTracedPathMatchesFast: the untraced engine finds each BLOCK-SELECT
// target with one StackEnd call and the traced one walks way by way; under
// every policy, with the same seed and the same accesses, both must leave
// identical engine and cache statistics.
func TestTracedPathMatchesFast(t *testing.T) {
	for _, pol := range replacement.Names() {
		for _, p := range []float64{0.05, 0.5, 1} {
			var got [2]Stats
			var llc [2]cache.Stats
			for i := range got {
				c := demoCache(t, 16, 8, pol)
				e := MustNewEngine(Params{PInduce: p, Seed: 31})
				events := 0
				if i == 1 {
					e.Trace = func(Event) { events++ }
				}
				c.SetInjector(e)
				drive(c, 20_000, 3000)
				if i == 1 && events == 0 {
					t.Fatalf("%s: traced engine emitted no events", pol)
				}
				got[i], llc[i] = e.Stats, c.Stats
			}
			if got[0] != got[1] {
				t.Errorf("%s p=%v: engine stats differ:\nfast   %+v\ntraced %+v", pol, p, got[0], got[1])
			}
			if !reflect.DeepEqual(llc[0], llc[1]) {
				t.Errorf("%s p=%v: cache stats differ", pol, p)
			}
		}
	}
}
