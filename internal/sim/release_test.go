package sim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/trace"
)

// countingProvider hands out generator sources and counts the Source
// calls, the sources released and the sources released twice.
type countingProvider struct {
	sources, releases, doubles atomic.Int64
}

func (p *countingProvider) Source(spec trace.Spec, seed, base uint64) (trace.Source, error) {
	gen, err := trace.NewGenerator(spec, seed, base)
	if err != nil {
		return nil, err
	}
	p.sources.Add(1)
	return &countedSource{Generator: gen, p: p}, nil
}

type countedSource struct {
	*trace.Generator
	p        *countingProvider
	released atomic.Bool
}

func (s *countedSource) Release() {
	if s.released.Swap(true) {
		s.p.doubles.Add(1)
		return
	}
	s.p.releases.Add(1)
}

// check requires exactly one Release of every source handed out, and
// want sources in all.
func (p *countingProvider) check(t *testing.T, what string, want int64) {
	t.Helper()
	if s, r, d := p.sources.Load(), p.releases.Load(), p.doubles.Load(); s != want || r != s || d != 0 {
		t.Errorf("%s: %d sources, %d released, %d released twice; want %d, each released once", what, s, r, d, want)
	}
}

// TestSourceReleasedOnce checks every path that opens a primary stream
// releases it exactly once, however the run ends: a replay cache
// recycles a stream's arenas only after its last reader's release, so
// a missed release pins the stream and a second one would recycle
// arenas under a live reader. Adversary streams bypass the provider.
func TestSourceReleasedOnce(t *testing.T) {
	run := func(what string, cfg Config, wantErr bool) {
		t.Helper()
		p := &countingProvider{}
		cfg.Streams = p
		_, err := Run(cfg)
		if (err != nil) != wantErr {
			t.Fatalf("%s: Run error %v, want error %v", what, err, wantErr)
		}
		p.check(t, what, 1)
	}
	base := tiny(Config{Workload: "433.milc"})
	run("isolation", base, false)
	pinte := base
	pinte.Mode, pinte.PInduce = PInTE, 0.3
	run("PInTE", pinte, false)
	second := base
	second.Mode, second.Adversary, second.Adversaries = SecondTrace, "470.lbm", []string{"450.soplex"}
	run("2nd-Trace", second, false)
	sampled := pinte
	sampled.Sample = fullWindowPlan(sampled)
	run("sampled", sampled, false)

	for _, site := range []string{"sim.source", "trace.read"} {
		if err := fault.Apply("seed=1;" + site + ":every=1,limit=1"); err != nil {
			t.Fatal(err)
		}
		run(site+" fault", pinte, true)
		run(site+" fault, sampled", sampled, false) // the fault fired already
		fault.Disable()
	}
}

// TestFanoutDigestReleasesSource checks a digest group releases its one
// primary stream once, from the front, whether every follower finishes
// or one fails by error or panic.
func TestFanoutDigestReleasesSource(t *testing.T) {
	cfgs := []Config{
		tiny(Config{Workload: "433.milc"}),
		tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.1}),
		tiny(Config{Workload: "433.milc", Mode: PInTE, PInduce: 0.6}),
	}
	errBoom := errors.New("follower failed")
	defer func() { fanTakeHook = nil }()
	for _, fail := range []string{"none", "error", "panic"} {
		p := &countingProvider{}
		group := make([]Config, len(cfgs))
		for i, c := range cfgs {
			c.Streams = p
			group[i] = c
		}
		front := make(chan *fanFront, 1)
		fanTakeHook = func(fr *fanFront, j, k int) error {
			if j == 0 && k == 0 {
				front <- fr
			}
			if j != 1 || k != 1 {
				return nil
			}
			switch fail {
			case "error":
				return errBoom
			case "panic":
				panic(errBoom)
			}
			return nil
		}
		pts := RunFanGroup(context.Background(), group, 0)
		for i, pt := range pts {
			if failed := pt.Err != nil; failed != (i == 1 && fail != "none") {
				t.Errorf("%s: point %d reports %v", fail, i, pt.Err)
			}
		}
		// The front releases its stream on its way out, which may be
		// after the group's last point reported.
		select {
		case <-(<-front).done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: the digest front never finished", fail)
		}
		p.check(t, "digest group, follower failing by "+fail, 1)
	}
}
