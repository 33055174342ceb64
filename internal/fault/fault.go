// Package fault is a deterministic fault-injection framework for the
// persistence and execution stack. Production code marks each place a
// real-world failure can strike — a result-store append, a replay-arena
// decode, a worker execution — with a named site check; the chaos test
// suite (and the binaries' -chaos flag) arms sites with seeded trigger
// schedules and asserts the system degrades instead of corrupting.
//
// The framework is built around three properties:
//
//   - Zero overhead when disabled. Every injection check starts with one
//     atomic load of a package-level flag; with injection off (the only
//     state production ever runs in) a site costs a predicted branch and
//     allocates nothing, so the hot-path 0-allocs guards and golden
//     determinism tests hold with the sites compiled in.
//
//   - Deterministic when enabled. Each site draws from its own splitmix64
//     stream seeded by (global seed, site name), so a given seed replays
//     the same per-site fire pattern run after run — a failing chaos run
//     reproduces from its seed.
//
//   - Declarative schedules. A Spec arms a site with a per-hit
//     probability, a fire-every-Nth cadence, a warm-up skip and a total
//     fire budget, covering both "rare random bit rot" and "fail exactly
//     the third append" shapes without test-specific plumbing.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Site names threaded through the stack. A site string is free-form —
// these constants just keep call sites and tests in one vocabulary.
const (
	// Replay cache (internal/replay): arena and pool faults.
	SiteReplaySource  = "replay.source"  // stream acquisition fails (generator build)
	SiteReplayCorrupt = "replay.corrupt" // a sealed arena chunk or page rots after its checksum
	SiteReplayEvict   = "replay.evict"   // forced eviction pressure on arena growth

	// Trace sources (internal/sim): stream plumbing faults.
	SiteSimSource = "sim.source" // primary-core source acquisition fails
	SiteTraceRead = "trace.read" // a source read fails mid-run

	// Worker execution (internal/runner): wedged and dying workers.
	SiteWorkerPanic = "worker.panic" // the run panics
	SiteWorkerHang  = "worker.hang"  // the run blocks, ignoring its context
	SiteWorkerSlow  = "worker.slow"  // the run stalls for Spec.Delay first

	// Result store (internal/store): the durable result record. None
	// fails a run: a lost append keeps the result and is reported as a
	// record-only failure, a failed read recomputes.
	SiteStoreOpen          = "store.open"           // store open/segment scan fails
	SiteStoreAppend        = "store.append"         // an append fails before any byte is written
	SiteStoreAppendPartial = "store.append.partial" // an append dies mid-record (simulated crash)
	SiteStoreRead          = "store.read"           // a hit read-back fails

	// Campaign service (internal/server): service-layer faults.
	SiteServerAdmit       = "server.admit"        // the admission check dies before reaching a verdict
	SiteServerStreamWrite = "server.stream.write" // a result-stream write toward a client fails
	SiteServerManifest    = "server.manifest"     // the durable manifest write fails; with a delay, a state transition stalls
)

// ErrInjected is the sentinel every injected error wraps; chaos tests
// classify failures with errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected failure")

// Spec arms one site. The zero value never fires.
type Spec struct {
	// Prob fires each eligible hit with this probability (0..1).
	// Ignored when Every is set.
	Prob float64
	// Every fires deterministically on every Nth eligible hit (1 = every
	// hit). Takes precedence over Prob.
	Every uint64
	// After skips the first N hits before any can fire.
	After uint64
	// Limit caps total fires; 0 means unlimited.
	Limit uint64
	// Delay is the stall duration for sites that sleep (worker.slow).
	Delay time.Duration
}

// SiteStats is one site's lifetime counters since Enable.
type SiteStats struct {
	Hits  uint64 // times the site was reached while enabled
	Fires uint64 // times it actually injected
}

type point struct {
	mu    sync.Mutex
	spec  Spec
	rng   uint64
	hits  uint64
	fires uint64
}

var (
	enabled atomic.Bool

	mu     sync.RWMutex
	seed   uint64
	points map[string]*point
	// hang blocks Hang callers until Disable closes it, so a chaos test
	// can wedge workers and still release them during cleanup.
	hang chan struct{}
)

// Enabled reports whether injection is armed. This is the fast path every
// site check takes first; keep call sites shaped as
// `if fault.Enabled() && ...` or use Fires/Err directly.
func Enabled() bool { return enabled.Load() }

// Enable arms injection with the given determinism seed. Sites configured
// before or after Enable both take effect; counters reset.
func Enable(s uint64) {
	mu.Lock()
	seed = s
	points = make(map[string]*point)
	hang = make(chan struct{})
	mu.Unlock()
	enabled.Store(true)
}

// Disable disarms every site, releases any goroutine blocked in Hang and
// clears all configuration. Safe to call when already disabled.
func Disable() {
	enabled.Store(false)
	mu.Lock()
	if hang != nil {
		close(hang)
		hang = nil
	}
	points = nil
	mu.Unlock()
}

// Set arms site with spec (replacing any previous spec and counters for
// that site). Call after Enable; a Set while disabled is dropped.
func Set(site string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		return
	}
	points[site] = &point{spec: spec, rng: splitmix(seed ^ fnv64(site))}
}

// fnv64 hashes a site name (FNV-1a) so each site gets an independent
// deterministic stream from one global seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// splitmix advances a splitmix64 state and returns the mixed output.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fires reports whether site injects on this hit. With injection
// disabled it is one atomic load; unconfigured sites never fire.
func Fires(site string) bool {
	if !enabled.Load() {
		return false
	}
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits++
	if p.hits <= p.spec.After {
		return false
	}
	if p.spec.Limit > 0 && p.fires >= p.spec.Limit {
		return false
	}
	fire := false
	if p.spec.Every > 0 {
		fire = (p.hits-p.spec.After-1)%p.spec.Every == 0
	} else if p.spec.Prob > 0 {
		p.rng = splitmix(p.rng)
		// Top 53 bits → uniform [0,1); strict < so Prob=0 never fires
		// and Prob=1 always does.
		fire = float64(p.rng>>11)/(1<<53) < p.spec.Prob
	}
	if fire {
		p.fires++
	}
	return fire
}

// Err returns an injected error wrapping ErrInjected when site fires,
// nil otherwise. The standard shape for error-path sites:
//
//	if err := fault.Err(fault.SiteStoreOpen); err != nil { return err }
func Err(site string) error {
	if !enabled.Load() {
		return nil
	}
	if Fires(site) {
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
	return nil
}

// Delay returns the site's configured stall duration when it fires, 0
// otherwise.
func Delay(site string) time.Duration {
	if !enabled.Load() {
		return 0
	}
	mu.RLock()
	p := points[site]
	mu.RUnlock()
	if p == nil || p.spec.Delay <= 0 {
		return 0
	}
	if Fires(site) {
		return p.spec.Delay
	}
	return 0
}

// Hang blocks the caller until Disable, deliberately ignoring every
// context — the shape of a truly wedged worker (deadlock, blocked
// syscall) that only a watchdog can convert into a typed failure.
func Hang() {
	mu.RLock()
	ch := hang
	mu.RUnlock()
	if ch != nil {
		<-ch
	}
}

// Worker injects the worker sites at the start of a run: worker.panic
// panics, worker.slow stalls for its delay, worker.hang blocks until
// Disable. The orchestrator's per-run worker and every fan-out point
// call it, so a chaos schedule reaches a run however it is executed.
// With injection disabled it is one atomic load.
func Worker() {
	if !enabled.Load() {
		return
	}
	if Fires(SiteWorkerPanic) {
		panic(fmt.Sprintf("%v at %s", ErrInjected, SiteWorkerPanic))
	}
	if d := Delay(SiteWorkerSlow); d > 0 {
		time.Sleep(d)
	}
	if Fires(SiteWorkerHang) {
		Hang()
	}
}

// Snapshot returns per-site counters since Enable, keyed by site name.
func Snapshot() map[string]SiteStats {
	mu.RLock()
	defer mu.RUnlock()
	out := make(map[string]SiteStats, len(points))
	for name, p := range points {
		p.mu.Lock()
		out[name] = SiteStats{Hits: p.hits, Fires: p.fires}
		p.mu.Unlock()
	}
	return out
}

// Summary renders a snapshot as one sorted log line.
func Summary() string {
	snap := Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("fault injection:")
	if len(names) == 0 {
		b.WriteString(" no sites armed")
	}
	for _, n := range names {
		s := snap[n]
		fmt.Fprintf(&b, " %s=%d/%d", n, s.Fires, s.Hits)
	}
	return b.String()
}

// Parse decodes a -chaos specification of the form
//
//	seed=42;store.append:p=0.01;worker.panic:every=7,after=3,limit=1;worker.slow:delay=50ms,p=1
//
// into a seed and per-site Specs. The seed clause is optional (default
// 1). Returns an error naming the first malformed clause.
func Parse(s string) (uint64, map[string]Spec, error) {
	specs := make(map[string]Spec)
	var sd uint64 = 1
	for _, clause := range strings.Split(s, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return 0, nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			sd = n
			continue
		}
		site, opts, ok := strings.Cut(clause, ":")
		if !ok || site == "" {
			return 0, nil, fmt.Errorf("fault: clause %q is not site:k=v[,k=v...]", clause)
		}
		var spec Spec
		for _, kv := range strings.Split(opts, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return 0, nil, fmt.Errorf("fault: option %q in %q is not k=v", kv, clause)
			}
			var err error
			switch k {
			case "p", "prob":
				spec.Prob, err = strconv.ParseFloat(v, 64)
				if err == nil && (spec.Prob < 0 || spec.Prob > 1) {
					err = fmt.Errorf("probability %v outside [0,1]", spec.Prob)
				}
			case "every":
				spec.Every, err = strconv.ParseUint(v, 10, 64)
			case "after":
				spec.After, err = strconv.ParseUint(v, 10, 64)
			case "limit":
				spec.Limit, err = strconv.ParseUint(v, 10, 64)
			case "delay":
				spec.Delay, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown option %q", k)
			}
			if err != nil {
				return 0, nil, fmt.Errorf("fault: site %s: %v", site, err)
			}
		}
		specs[site] = spec
	}
	return sd, specs, nil
}

// Apply parses spec and, when it names any site, enables injection with
// the parsed seed and arms every site. An empty spec is a no-op, so
// binaries can call Apply(*chaosFlag) unconditionally.
func Apply(spec string) error {
	if strings.TrimSpace(spec) == "" {
		return nil
	}
	sd, specs, err := Parse(spec)
	if err != nil {
		return err
	}
	Enable(sd)
	for site, s := range specs {
		Set(site, s)
	}
	return nil
}
