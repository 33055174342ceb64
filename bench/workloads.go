package main

import (
	"fmt"
	"sort"

	pinte "repro/internal/core"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
)

// procs pins both GOMAXPROCS and every campaign's worker count, so runs
// on machines with different core counts measure the same schedule.
const procs = 2

// Workload names, in the order BENCHMARK.json lists them.
const (
	wSweepFull    = "sweep-full"
	wSweepFan     = "sweep-fan"
	wSweepSampled = "sweep-sampled"
	wServeMixed   = "serve-mixed"
)

var workloadNames = []string{wSweepFull, wSweepFan, wSweepSampled, wServeMixed}

// sizes fixes every input size of the workloads. fullSizes is the
// benchmark; tinySizes keeps the package's tests fast.
type sizes struct {
	// Sweep budgets in primary-core instructions. Statistics start
	// after each run's warm-up, from caches the warm-up filled; the
	// machine starts empty.
	warmup, roi uint64
	// sampledPoints are the P_Induce points each preset of
	// sweep-sampled runs besides its isolation baseline.
	sampledPoints []float64
	// Serve budgets and traffic.
	serveWarmup, serveROI            uint64
	fresh, repeat, preseed, restarts int
	// setupReps is how many times set-up is repeated (setup_s is their
	// median); minReps the fewest timed reps a run makes.
	setupReps, minReps int
}

// fullSizes runs every sweep at a quarter of the simulator's default
// 1:500 budgets (200k warm-up / 1M ROI), so one campaign takes one to
// three seconds on two cores and a run of --seconds holds several reps
// to take medians over.
func fullSizes() sizes {
	return sizes{
		warmup: 50_000, roi: 250_000,
		sampledPoints: pinte.DefaultSweep(),
		serveWarmup:   20_000, serveROI: 100_000,
		fresh: 50, repeat: 50, preseed: 5, restarts: 5,
		setupReps: 15, minReps: 3,
	}
}

// tinySizes keeps every code path of fullSizes at a size the tests can
// afford.
func tinySizes() sizes {
	return sizes{
		warmup: 2_000, roi: 12_000,
		sampledPoints: []float64{0.1, 1.0},
		serveWarmup:   1_000, serveROI: 4_000,
		fresh: 25, repeat: 25, preseed: 1, restarts: 2,
		setupReps: 2, minReps: 2,
	}
}

// The sweep campaign: presets chosen for distinct bottlenecks, each
// with an isolation baseline, the paper's 12 P_Induce points and one
// 2nd-Trace pairing, plus a prefetching preset that forces the
// lockstep fan-out executor.
var (
	sweepPresets   = []string{"453.povray", "450.soplex", "470.lbm", "403.gcc"}
	sweepAdversary = "470.lbm"
	prefetchPreset = "433.milc"
	prefetchCode   = "0IN" // L1D IP-stride + L2 next-line
	prefetchPoints = []float64{0.01, 0.05, 0.10, 0.30, 0.70, 1.0}
)

// sweepConfigs is the 63-config campaign of sweep-full and sweep-fan.
func sweepConfigs(z sizes, seed uint64) []sim.Config {
	base := sim.Config{WarmupInstrs: z.warmup, ROIInstrs: z.roi, Seed: seed}
	var cfgs []sim.Config
	for _, w := range sweepPresets {
		c := base
		c.Workload = w
		cfgs = append(cfgs, c)
		for _, p := range pinte.DefaultSweep() {
			c := base
			c.Workload, c.Mode, c.PInduce = w, sim.PInTE, p
			cfgs = append(cfgs, c)
		}
		c = base
		c.Workload, c.Mode, c.Adversary = w, sim.SecondTrace, sweepAdversary
		cfgs = append(cfgs, c)
	}
	c := base
	c.Workload = prefetchPreset
	c.Hier.Prefetch = prefetchCode
	cfgs = append(cfgs, c)
	for _, p := range prefetchPoints {
		c := c
		c.Mode, c.PInduce = sim.PInTE, p
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// sampledPresets is every third preset in name order: 17 presets that
// span both suites and every bottleneck class. All 49 would hold about
// 2.5 GiB at peak, since the campaign's replay cache keeps every
// profiled stream until the campaign ends.
func sampledPresets() []string {
	var out []string
	for i, w := range trace.Names() {
		if i%3 == 0 {
			out = append(out, w)
		}
	}
	return out
}

// sampledConfigs is sweep-sampled's campaign: isolation plus the
// sampled points on each sampled preset.
func sampledConfigs(z sizes, seed uint64) []sim.Config {
	base := sim.Config{WarmupInstrs: z.warmup, ROIInstrs: z.roi, Seed: seed}
	var cfgs []sim.Config
	for _, w := range sampledPresets() {
		c := base
		c.Workload = w
		cfgs = append(cfgs, c)
		for _, p := range z.sampledPoints {
			c := base
			c.Workload, c.Mode, c.PInduce = w, sim.PInTE, p
			cfgs = append(cfgs, c)
		}
	}
	return cfgs
}

// servePresets are the presets the serve workload's fresh specs cycle
// over: the ten presets alphabetically first, mixing every bottleneck.
func servePresets() []string { return trace.Names()[:10] }

// serveSpecs derives n specs for the serve workload from the seed. The
// k'th spec runs preset k mod 10, isolation plus two P_Induce points,
// under its own simulation seed, so no two specs of one set share a
// config; salt separates the fresh set from the pre-seed set.
func serveSpecs(z sizes, seed uint64, salt uint64, n int) []server.SweepSpec {
	presets := servePresets()
	pts := pinte.DefaultSweep()
	specs := make([]server.SweepSpec, n)
	for k := range specs {
		h := mix(seed, salt, uint64(k))
		a := int(h % uint64(len(pts)))
		b := (a + 1 + int(h>>8%uint64(len(pts)-1))) % len(pts)
		lo, hi := min(a, b), max(a, b)
		specs[k] = server.SweepSpec{
			Workloads:    []string{presets[(k+int(seed%10))%len(presets)]},
			Points:       []float64{pts[lo], pts[hi]},
			WarmupInstrs: z.serveWarmup,
			ROIInstrs:    z.serveROI,
			Seed:         h | 1, // never 0, which the spec maps to 1
		}
	}
	return specs
}

// mix is splitmix64 over its inputs: well-spread, deterministic seeds.
func mix(xs ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, x := range xs {
		h ^= x
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// distinctPresets lists the presets a config list uses, sorted.
func distinctPresets(cfgs []sim.Config) []string {
	seen := make(map[string]bool)
	for _, c := range cfgs {
		seen[c.Workload] = true
	}
	out := make([]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// nominalInstrs is the warm-up plus ROI primary-core instructions a
// config list requests.
func nominalInstrs(cfgs []sim.Config) uint64 {
	var n uint64
	for _, c := range cfgs {
		n += c.WarmupInstrs + c.ROIInstrs
	}
	return n
}

// newWorkload builds the named workload for one seed.
func newWorkload(name string, z sizes, seed uint64, scratch string) (workload, error) {
	switch name {
	case wSweepFull:
		return newSweep(name, sweepConfigs(z, seed), false, false, false), nil
	case wSweepFan:
		return newSweep(name, sweepConfigs(z, seed), true, true, false), nil
	case wSweepSampled:
		return newSweep(name, sampledConfigs(z, seed), true, false, true), nil
	case wServeMixed:
		return newServe(z, seed, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
