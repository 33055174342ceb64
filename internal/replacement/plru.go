package replacement

import (
	"math/bits"

	"repro/internal/recycle"
)

// PLRU is tree-based pseudo-LRU (binary-tree bits per set), the
// implementation style of the patent the paper cites [54]. Ways must be a
// power of two. Each internal tree node holds one bit: 0 means "the LRU
// side is the left subtree", 1 means right. A touch flips the bits along
// the way's path to point away from it; the victim is found by following
// the bits from the root.
type PLRU struct {
	ways   int
	levels int
	// tree holds ways-1 bits per set, packed one set per uint32
	// (supports up to 32 ways).
	tree []uint32
}

// NewPLRU returns a pLRU policy; call Reset before use.
func NewPLRU() *PLRU { return &PLRU{} }

// Name implements Policy.
func (p *PLRU) Name() string { return "plru" }

// Reset implements Policy. It panics if ways is not a power of two or
// exceeds 32, which are structural configuration errors.
func (p *PLRU) Reset(sets, ways int) {
	if ways&(ways-1) != 0 || ways > 32 || ways < 2 {
		panic("replacement: pLRU requires 2..32 power-of-two ways")
	}
	p.ways = ways
	p.levels = bits.TrailingZeros(uint(ways))
	p.tree = recycle.Get[uint32](sets)
}

// Release implements Policy.
func (p *PLRU) Release() {
	recycle.Put(p.tree)
	p.tree = nil
}

// node indexing: root at 1, children of n at 2n and 2n+1; bit for node n
// stored at position n-1. Leaf for way w is node ways+w.

func (p *PLRU) touch(set, way int) {
	t := p.tree[set]
	node := p.ways + way
	for node > 1 {
		parent := node >> 1
		bit := uint32(1) << (parent - 1)
		if node&1 == 0 {
			// way is in the left subtree: point LRU right.
			t |= bit
		} else {
			t &^= bit
		}
		node = parent
	}
	p.tree[set] = t
}

// OnFill implements Policy.
func (p *PLRU) OnFill(set, way int) { p.touch(set, way) }

// OnHit implements Policy.
func (p *PLRU) OnHit(set, way int) { p.touch(set, way) }

// Promote implements Policy.
func (p *PLRU) Promote(set, way int) { p.touch(set, way) }

// OnInvalidate implements Policy: the tree is pointed toward the freed
// way so it becomes the next victim — the standard hardware behaviour
// (an empty frame should be refilled before live data is evicted).
func (p *PLRU) OnInvalidate(set, way int) {
	t := p.tree[set]
	node := p.ways + way
	for node > 1 {
		parent := node >> 1
		bit := uint32(1) << (parent - 1)
		if node&1 == 0 {
			// way is in the left subtree: point the victim walk left.
			t &^= bit
		} else {
			t |= bit
		}
		node = parent
	}
	p.tree[set] = t
}

// Victim implements Policy: follow the tree bits from the root.
func (p *PLRU) Victim(set int) int {
	t := p.tree[set]
	node := 1
	for node < p.ways {
		bit := (t >> (node - 1)) & 1
		node = node<<1 | int(bit)
	}
	return node - p.ways
}

// AtStackEnd implements Policy: way is the tree's current victim.
func (p *PLRU) AtStackEnd(set, way int) bool { return p.Victim(set) == way }

// StackEnd implements Policy: the tree's current victim is the only way
// at the stack end.
func (p *PLRU) StackEnd(set int) int { return p.Victim(set) }

// HitPosition implements Policy. pLRU has no total order; the
// approximation treats each tree level's bit as one binary digit of the
// position: a way whose entire path agrees with the victim pointer is at
// the eviction end (ways-1); a way just touched is at 0.
func (p *PLRU) HitPosition(set, way int) int {
	t := p.tree[set]
	pos := 0
	node := 1
	for level := 0; level < p.levels; level++ {
		bit := (t >> (node - 1)) & 1
		// Which direction does way lie from this node?
		dir := (way >> (p.levels - 1 - level)) & 1
		pos <<= 1
		if int(bit) == dir {
			pos |= 1
		}
		node = node<<1 | dir
	}
	return pos
}
