package replacement

import "repro/internal/recycle"

// LRU is true least-recently-used replacement. Each block carries a
// 16-bit rank that orders the touches within its set: a touch gives the
// block the set's next rank, 0 means never touched, and the victim is the
// block with the lowest rank. Only the order of ranks inside a set is
// ever read, so when a set's counter would overflow the set's touched
// ways are renumbered 1..k in the same order; every query answers exactly
// as it would under one global 64-bit clock.
type LRU struct {
	ways int
	rank []uint16 // sets*ways ranks, ordered within each set
	top  []uint16 // per set: the highest rank handed out
}

// maxRank is the highest rank a touch may hand out before its set is
// renumbered.
const maxRank = ^uint16(0)

// NewLRU returns an LRU policy; call Reset before use.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (p *LRU) Name() string { return "lru" }

// Reset implements Policy.
func (p *LRU) Reset(sets, ways int) {
	p.ways = ways
	p.rank = recycle.Get[uint16](sets * ways)
	p.top = recycle.Get[uint16](sets)
}

// Release implements Policy.
func (p *LRU) Release() {
	recycle.Put(p.rank)
	recycle.Put(p.top)
	p.rank, p.top = nil, nil
}

func (p *LRU) touch(set, way int) {
	t := p.top[set]
	if t == maxRank {
		t = p.renumber(set)
	}
	t++
	p.top[set] = t
	p.rank[set*p.ways+way] = t
}

// renumber compacts set's touched ranks to 1..k, keeping their order and
// leaving untouched ways at 0, and returns k. Ranks are assigned in
// ascending order of the old ones: the j-th smallest old rank is at least
// j, so the ranks already assigned stay below every rank not yet
// visited, and the next one to visit is always the smallest above j.
func (p *LRU) renumber(set int) uint16 {
	base := set * p.ways
	ranks := p.rank[base : base+p.ways]
	var k uint16
	for {
		next, min := -1, maxRank
		for w, r := range ranks {
			if r > k && r <= min {
				next, min = w, r
			}
		}
		if next < 0 {
			return k
		}
		k++
		ranks[next] = k
	}
}

// OnFill implements Policy.
func (p *LRU) OnFill(set, way int) { p.touch(set, way) }

// OnHit implements Policy.
func (p *LRU) OnHit(set, way int) { p.touch(set, way) }

// Promote implements Policy.
func (p *LRU) Promote(set, way int) { p.touch(set, way) }

// OnInvalidate implements Policy. The slot keeps its rank; the cache
// prefers invalid ways before asking for a victim, so stale ranks on
// invalid slots are harmless.
func (p *LRU) OnInvalidate(set, way int) {}

// Victim implements Policy: the way with the lowest rank, the lowest
// such way among never-touched ones.
func (p *LRU) Victim(set int) int {
	base := set * p.ways
	ranks := p.rank[base : base+p.ways]
	best, bestRank := 0, ranks[0]
	for w, r := range ranks[1:] {
		if r < bestRank {
			best, bestRank = w+1, r
		}
	}
	return best
}

// StackEnd implements Policy: the victim is the lowest way at the stack
// end.
func (p *LRU) StackEnd(set int) int { return p.Victim(set) }

// AtStackEnd implements Policy: true for the lowest-ranked way. Touched
// ways have unique ranks, so a strict compare excludes way itself and
// ties between never-touched (rank 0) ways resolve the same as an
// explicit self-skip would.
func (p *LRU) AtStackEnd(set, way int) bool {
	base := set * p.ways
	a := p.rank[base+way]
	for _, x := range p.rank[base : base+p.ways] {
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
	a := p.rank[base+way]
	pos := 0
	for _, x := range p.rank[base : base+p.ways] {
		if x > a {
			pos++
		}
	}
	return pos
}

// HitPositionTouch is HitPosition immediately followed by OnHit, fused
// into one pass so the demand-hit path pays a single dynamic call and a
// single walk of the set's ranks.
func (p *LRU) HitPositionTouch(set, way int) int {
	base := set * p.ways
	ranks := p.rank[base : base+p.ways]
	a := ranks[way]
	pos := 0
	for _, x := range ranks {
		if x > a {
			pos++
		}
	}
	p.touch(set, way)
	return pos
}
