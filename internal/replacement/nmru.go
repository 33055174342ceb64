package replacement

import (
	"repro/internal/recycle"
	"repro/internal/rng"
)

// NMRU is not-most-recently-used replacement: it protects only the single
// most recently touched block per set and victimises a uniformly random
// other way. The paper groups it with "recency" policies (sensitive to
// contention frequency rather than data movement).
type NMRU struct {
	ways int
	mru  []int32
	rng  rng.PCG
}

// NewNMRU returns an nMRU policy whose random victim stream is seeded by
// seed; call Reset before use.
func NewNMRU(seed uint64) *NMRU {
	p := &NMRU{}
	p.rng.Seed(seed, 0xda3e39cb94b95bdb)
	return p
}

// Name implements Policy.
func (p *NMRU) Name() string { return "nmru" }

// Reset implements Policy.
func (p *NMRU) Reset(sets, ways int) {
	p.ways = ways
	p.mru = recycle.Get[int32](sets)
	for i := range p.mru {
		p.mru[i] = -1
	}
}

// Release implements Policy.
func (p *NMRU) Release() {
	recycle.Put(p.mru)
	p.mru = nil
}

// OnFill implements Policy.
func (p *NMRU) OnFill(set, way int) { p.mru[set] = int32(way) }

// OnHit implements Policy.
func (p *NMRU) OnHit(set, way int) { p.mru[set] = int32(way) }

// Promote implements Policy.
func (p *NMRU) Promote(set, way int) { p.mru[set] = int32(way) }

// OnInvalidate implements Policy: an invalidated MRU block loses its
// protection.
func (p *NMRU) OnInvalidate(set, way int) {
	if p.mru[set] == int32(way) {
		p.mru[set] = -1
	}
}

// Victim implements Policy: a uniformly random non-MRU way.
func (p *NMRU) Victim(set int) int {
	mru := int(p.mru[set])
	if p.ways == 1 {
		return 0
	}
	w := p.rng.IntN(p.ways - 1)
	if w >= mru && mru >= 0 {
		w++
	}
	return w
}

// AtStackEnd implements Policy: every non-MRU block is a victim
// candidate, so PInTE may inject on any of them.
func (p *NMRU) AtStackEnd(set, way int) bool { return int(p.mru[set]) != way }

// StackEnd implements Policy: the first non-MRU way.
func (p *NMRU) StackEnd(set int) int {
	if p.mru[set] != 0 {
		return 0
	}
	if p.ways > 1 {
		return 1
	}
	return -1
}

// HitPosition implements Policy. nMRU orders only {MRU, everything else};
// non-MRU hits report the middle of the stack as their position.
func (p *NMRU) HitPosition(set, way int) int {
	if int(p.mru[set]) == way {
		return 0
	}
	return p.ways / 2
}
