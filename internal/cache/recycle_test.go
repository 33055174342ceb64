package cache

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/replacement"
)

func TestReleasedCachePanics(t *testing.T) {
	c := smallCache(t, 1)
	c.Fill(0x1000, 0, false, false)
	c.Lookup(0x1000, 0, false)
	c.Release()
	c.Release() // idempotent
	if c.Stats.Hits[0] != 1 {
		t.Fatal("stats unreadable after release")
	}
	for name, use := range map[string]func(){
		"Lookup": func() { c.Lookup(0x1000, 0, false) },
		"Fill":   func() { c.Fill(0x2000, 0, false, false) },
		"Probe":  func() { c.Probe(0x1000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRecycledCacheStartsEmpty dirties every array of a cache, releases
// it, and checks that the next cache of that geometry is exactly as
// empty as a fresh allocation.
func TestRecycledCacheStartsEmpty(t *testing.T) {
	for _, pol := range replacement.Names() {
		t.Run(pol, func(t *testing.T) {
			cfg := Config{Name: "r", SizeBytes: 64 * 8 * BlockBytes, Ways: 8,
				Policy: replacement.MustNew(pol, 1)}
			c := MustNew(cfg)
			rng := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < 4000; i++ {
				addr := rng.Uint64N(1<<16) * BlockBytes
				if !c.Lookup(addr, 0, i%3 == 0) {
					c.Fill(addr, 0, i%5 == 0, i%7 == 0)
				}
			}
			c.Release()

			cfg.Policy = replacement.MustNew(pol, 1)
			r := MustNew(cfg)
			for i, b := range r.blocks {
				if b != (Block{}) || r.tags[i] != noTag {
					t.Fatalf("way %d not empty: %+v tag %x", i, b, r.tags[i])
				}
			}
			for s := 0; s < r.sets; s++ {
				if r.memoTag[s] != noTag || r.memoWay[s] != 0 || r.memoPos[s] != 0 ||
					r.freeCnt[s] != int32(r.ways) {
					t.Fatalf("set %d memo/free state not reset", s)
				}
			}
		})
	}
}

// TestConcurrentRecycling builds, drives and releases caches of mixed
// geometries and policies from four goroutines at once. Every run must
// reproduce the statistics of the same run done alone, whichever
// goroutine's released arrays it picked up.
func TestConcurrentRecycling(t *testing.T) {
	type shape struct {
		size, ways int
		policy     string
	}
	var shapes []shape
	for _, pol := range replacement.Names() {
		shapes = append(shapes, shape{64 * 8 * BlockBytes, 8, pol},
			shape{32 * 16 * BlockBytes, 16, pol}, shape{128 * 4 * BlockBytes, 4, pol})
	}
	drive := func(s shape, seed uint64) string {
		c := MustNew(Config{Name: "c", SizeBytes: s.size, Ways: s.ways, Cores: 2,
			Policy: replacement.MustNew(s.policy, seed)})
		defer c.Release()
		rng := rand.New(rand.NewPCG(seed, 7))
		for i := 0; i < 3000; i++ {
			addr := rng.Uint64N(1<<14) * BlockBytes
			core := i & 1
			if !c.Lookup(addr, core, i%4 == 0) {
				c.Fill(addr, core, false, i%9 == 0)
			}
		}
		return fmt.Sprint(c.Stats)
	}
	want := make([]string, len(shapes))
	for i, s := range shapes {
		want[i] = drive(s, uint64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for k := range shapes {
					i := (k + g*3 + round) % len(shapes)
					if got := drive(shapes[i], uint64(i)); got != want[i] {
						errs <- fmt.Errorf("goroutine %d: shape %+v diverged on a recycled cache", g, shapes[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
