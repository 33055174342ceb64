package replacement

import "repro/internal/recycle"

// RRIP is static re-reference interval prediction (SRRIP, Jaleel et al.
// ISCA 2010) with 2-bit re-reference prediction values (RRPV). Blocks are
// inserted with a "long" prediction (RRPV max-1), promoted to "near"
// (RRPV 0) on hit, and the victim is any block predicted "distant" (RRPV
// max), ageing the whole set until one exists.
type RRIP struct {
	ways int
	rrpv []uint8
}

// rrpvMax is the distant-future RRPV for 2-bit SRRIP.
const rrpvMax = 3

// NewRRIP returns an SRRIP policy; call Reset before use.
func NewRRIP() *RRIP { return &RRIP{} }

// Name implements Policy.
func (p *RRIP) Name() string { return "rrip" }

// Reset implements Policy.
func (p *RRIP) Reset(sets, ways int) {
	p.ways = ways
	p.rrpv = recycle.Get[uint8](sets * ways)
	for i := range p.rrpv {
		p.rrpv[i] = rrpvMax
	}
}

// Release implements Policy.
func (p *RRIP) Release() {
	recycle.Put(p.rrpv)
	p.rrpv = nil
}

// OnFill implements Policy: insert with long re-reference prediction.
func (p *RRIP) OnFill(set, way int) { p.rrpv[set*p.ways+way] = rrpvMax - 1 }

// OnHit implements Policy: promote to near-immediate.
func (p *RRIP) OnHit(set, way int) { p.rrpv[set*p.ways+way] = 0 }

// Promote implements Policy: same promotion as a fresh insertion.
func (p *RRIP) Promote(set, way int) { p.rrpv[set*p.ways+way] = rrpvMax - 1 }

// OnInvalidate implements Policy: an empty slot is maximally distant.
func (p *RRIP) OnInvalidate(set, way int) { p.rrpv[set*p.ways+way] = rrpvMax }

// Victim implements Policy: the first way at RRPV max, ageing the set
// until one exists.
func (p *RRIP) Victim(set int) int {
	base := set * p.ways
	for {
		for w := 0; w < p.ways; w++ {
			if p.rrpv[base+w] == rrpvMax {
				return w
			}
		}
		for w := 0; w < p.ways; w++ {
			p.rrpv[base+w]++
		}
	}
}

// AtStackEnd implements Policy: way holds the set's maximum RRPV (it is a
// victim candidate without further ageing).
func (p *RRIP) AtStackEnd(set, way int) bool {
	base := set * p.ways
	v := p.rrpv[base+way]
	for w := 0; w < p.ways; w++ {
		if p.rrpv[base+w] > v {
			return false
		}
	}
	return true
}

// StackEnd implements Policy: the first way holding the set's maximum
// RRPV. Unlike Victim it does not age the set.
func (p *RRIP) StackEnd(set int) int {
	base := set * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.rrpv[base+w] > p.rrpv[base+best] {
			best = w
		}
	}
	return best
}

// HitPosition implements Policy: RRPV scaled onto the stack range.
func (p *RRIP) HitPosition(set, way int) int {
	return int(p.rrpv[set*p.ways+way]) * (p.ways - 1) / rrpvMax
}
