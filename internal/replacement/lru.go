package replacement

import "repro/internal/recycle"

// LRU is true least-recently-used replacement: a per-block timestamp
// records the last touch; the victim is the oldest block.
type LRU struct {
	ways  int
	age   []uint64 // sets*ways timestamps
	clock uint64
}

// NewLRU returns an LRU policy; call Reset before use.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Reset implements Policy.
func (p *LRU) Reset(sets, ways int) {
	p.ways = ways
	p.age = recycle.Get[uint64](sets * ways)
	p.clock = 1
}

// Release implements Policy.
func (p *LRU) Release() {
	recycle.Put(p.age)
	p.age = nil
}

func (p *LRU) touch(set, way int) {
	p.clock++
	p.age[set*p.ways+way] = p.clock
}

// OnFill implements Policy.
func (p *LRU) OnFill(set, way int) { p.touch(set, way) }

// OnHit implements Policy.
func (p *LRU) OnHit(set, way int) { p.touch(set, way) }

// Promote implements Policy.
func (p *LRU) Promote(set, way int) { p.touch(set, way) }

// OnInvalidate implements Policy. The slot keeps its age; the cache
// prefers invalid ways before asking for a victim, so stale ages on
// invalid slots are harmless.
func (p *LRU) OnInvalidate(set, way int) {}

// Victim implements Policy: the way with the oldest timestamp.
func (p *LRU) Victim(set int) int {
	base := set * p.ways
	ages := p.age[base : base+p.ways]
	best, bestAge := 0, ages[0]
	for w, a := range ages[1:] {
		if a < bestAge {
			best, bestAge = w+1, a
		}
	}
	return best
}

// AtStackEnd implements Policy: true for the oldest way. Touched ways
// have unique ages (the clock is monotonic), so a strict compare excludes
// way itself and ties between never-touched (age 0) ways resolve the same
// as an explicit self-skip would.
func (p *LRU) AtStackEnd(set, way int) bool {
	base := set * p.ways
	a := p.age[base+way]
	for _, x := range p.age[base : base+p.ways] {
		if x < a {
			return false
		}
	}
	return true
}

// HitPosition implements Policy: the number of ways younger than way. The
// strict compare never counts way itself (see AtStackEnd).
func (p *LRU) HitPosition(set, way int) int {
	base := set * p.ways
	a := p.age[base+way]
	pos := 0
	for _, x := range p.age[base : base+p.ways] {
		if x > a {
			pos++
		}
	}
	return pos
}

// HitPositionTouch is HitPosition immediately followed by OnHit, fused
// into one pass so the demand-hit path pays a single dynamic call and a
// single walk of the set's ages.
func (p *LRU) HitPositionTouch(set, way int) int {
	base := set * p.ways
	ages := p.age[base : base+p.ways]
	a := ages[way]
	pos := 0
	for _, x := range ages {
		if x > a {
			pos++
		}
	}
	p.clock++
	ages[way] = p.clock
	return pos
}
