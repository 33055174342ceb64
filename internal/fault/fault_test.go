package fault

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// arm enables injection for one test and guarantees cleanup, so a
// failing test never leaves the package armed for its neighbours.
func arm(t *testing.T, seed uint64) {
	t.Helper()
	Enable(seed)
	t.Cleanup(Disable)
}

func TestDisabledNeverFiresAndAllocatesNothing(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("freshly disabled framework reports enabled")
	}
	if Fires(SiteStoreAppend) || Err(SiteStoreAppend) != nil || Delay(SiteWorkerSlow) != 0 {
		t.Fatal("disabled framework injected")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if Fires(SiteStoreAppend) {
			t.Error("fired while disabled")
		}
		if Err(SiteReplaySource) != nil {
			t.Error("errored while disabled")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled site checks allocated %.1f times per run, want 0", allocs)
	}
}

func TestUnconfiguredSiteNeverFires(t *testing.T) {
	arm(t, 1)
	for i := 0; i < 100; i++ {
		if Fires("never.configured") {
			t.Fatal("unconfigured site fired")
		}
	}
}

// TestDeterministicAcrossRuns is the reproducibility contract: the same
// seed replays the same per-site fire pattern.
func TestDeterministicAcrossRuns(t *testing.T) {
	pattern := func(seed uint64) []bool {
		Enable(seed)
		defer Disable()
		Set(SiteStoreAppend, Spec{Prob: 0.3})
		out := make([]bool, 200)
		for i := range out {
			out[i] = Fires(SiteStoreAppend)
		}
		return out
	}
	a, b, c := pattern(42), pattern(42), pattern(43)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Fatal("same seed produced different fire patterns")
	}
	if !diff {
		t.Fatal("different seeds produced identical 200-draw patterns")
	}
}

func TestProbEndpoints(t *testing.T) {
	arm(t, 7)
	Set("p0", Spec{Prob: 0})
	Set("p1", Spec{Prob: 1})
	for i := 0; i < 500; i++ {
		if Fires("p0") {
			t.Fatal("Prob=0 fired")
		}
		if !Fires("p1") {
			t.Fatal("Prob=1 did not fire")
		}
	}
}

func TestEveryAfterLimitSchedule(t *testing.T) {
	arm(t, 3)
	// Skip 2 hits, then fire every 3rd eligible hit, at most twice.
	Set("sched", Spec{Every: 3, After: 2, Limit: 2})
	var fired []int
	for i := 1; i <= 12; i++ {
		if Fires("sched") {
			fired = append(fired, i)
		}
	}
	// Eligible hits are 3,4,5,...; every 3rd starting at the first
	// eligible → hits 3 and 6; the limit stops a third fire at hit 9.
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 6 {
		t.Fatalf("schedule fired at %v, want [3 6]", fired)
	}
	st := Snapshot()["sched"]
	if st.Hits != 12 || st.Fires != 2 {
		t.Fatalf("stats = %+v, want 12 hits / 2 fires", st)
	}
}

func TestErrWrapsSentinel(t *testing.T) {
	arm(t, 1)
	Set(SiteReplaySource, Spec{Every: 1})
	err := Err(SiteReplaySource)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected error %v does not wrap ErrInjected", err)
	}
}

func TestDelayOnlyWhenFiring(t *testing.T) {
	arm(t, 1)
	Set(SiteWorkerSlow, Spec{Every: 2, Delay: 5 * time.Millisecond})
	var delays []time.Duration
	for i := 0; i < 4; i++ {
		delays = append(delays, Delay(SiteWorkerSlow))
	}
	want := []time.Duration{5 * time.Millisecond, 0, 5 * time.Millisecond, 0}
	for i := range want {
		if delays[i] != want[i] {
			t.Fatalf("delays = %v, want %v", delays, want)
		}
	}
}

// TestHangReleasedByDisable pins the watchdog test shape: a hung worker
// blocks past any context, and Disable is the only release.
func TestHangReleasedByDisable(t *testing.T) {
	Enable(1)
	done := make(chan struct{})
	go func() {
		Hang()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Hang returned while enabled")
	case <-time.After(10 * time.Millisecond):
	}
	Disable()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Disable did not release Hang")
	}
}

func TestParseAndApply(t *testing.T) {
	seed, specs, err := Parse("seed=42; store.append:p=0.25,limit=3 ;worker.slow:delay=50ms,every=2,after=1")
	if err != nil {
		t.Fatal(err)
	}
	if seed != 42 {
		t.Fatalf("seed = %d, want 42", seed)
	}
	sa := specs["store.append"]
	if sa.Prob != 0.25 || sa.Limit != 3 {
		t.Fatalf("store.append spec = %+v", sa)
	}
	ws := specs["worker.slow"]
	if ws.Delay != 50*time.Millisecond || ws.Every != 2 || ws.After != 1 {
		t.Fatalf("worker.slow spec = %+v", ws)
	}

	for _, bad := range []string{
		"seed=x", "nosite", "s:k", "s:p=2", "s:delay=zzz", "s:what=1",
	} {
		if _, _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted a malformed spec", bad)
		}
	}

	if err := Apply(""); err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Fatal("empty Apply armed injection")
	}
	if err := Apply("worker.panic:every=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(Disable)
	if !Enabled() || !Fires(SiteWorkerPanic) {
		t.Fatal("Apply did not arm the parsed site")
	}
}

// TestConcurrentFires exercises the locking under -race: many goroutines
// hammering one site must keep exact hit/fire accounting.
func TestConcurrentFires(t *testing.T) {
	arm(t, 9)
	Set("conc", Spec{Every: 2})
	const workers, per = 8, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				Fires("conc")
				Fires("other.unconfigured")
			}
		}()
	}
	wg.Wait()
	st := Snapshot()["conc"]
	if st.Hits != workers*per || st.Fires != workers*per/2 {
		t.Fatalf("stats = %+v, want %d hits / %d fires", st, workers*per, workers*per/2)
	}
}
