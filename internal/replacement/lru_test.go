package replacement

import (
	"math/rand/v2"
	"testing"
)

// refLRU is the reference LRU: one 64-bit clock shared by every set, a
// per-block timestamp of the last touch, 0 for never touched. The ranked
// LRU must answer every query exactly as it does.
type refLRU struct {
	ways  int
	age   []uint64
	clock uint64
}

func newRefLRU(sets, ways int) *refLRU {
	return &refLRU{ways: ways, age: make([]uint64, sets*ways), clock: 1}
}

func (r *refLRU) touch(set, way int) {
	r.clock++
	r.age[set*r.ways+way] = r.clock
}

func (r *refLRU) victim(set int) int {
	ages := r.age[set*r.ways : (set+1)*r.ways]
	best := 0
	for w, a := range ages {
		if a < ages[best] {
			best = w
		}
	}
	return best
}

func (r *refLRU) atStackEnd(set, way int) bool {
	ages := r.age[set*r.ways : (set+1)*r.ways]
	for _, x := range ages {
		if x < ages[way] {
			return false
		}
	}
	return true
}

func (r *refLRU) hitPosition(set, way int) int {
	ages := r.age[set*r.ways : (set+1)*r.ways]
	pos := 0
	for _, x := range ages {
		if x > ages[way] {
			pos++
		}
	}
	return pos
}

// lruBurstUnit scales a burst op's count byte: 255 units exceed the
// 65535 touches that force a set to renumber.
const lruBurstUnit = 300

// FuzzLRURanks drives the ranked LRU and the global-clock reference
// through the same fill/hit/promote/invalidate sequence. Each op is three
// bytes: kind, set and way, and a count for bursts, which touch one way
// up to 76500 times so sets renumber at arbitrary states. After every op,
// Victim, StackEnd, AtStackEnd and HitPosition must agree on every set
// and way, and HitPositionTouch must return the reference's position.
func FuzzLRURanks(f *testing.F) {
	f.Add(uint8(7), []byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 4, 0, 255, 1, 3, 0, 4, 1, 255, 4, 0, 255})
	f.Add(uint8(15), []byte{0, 0, 0, 4, 5, 255, 3, 5, 0, 4, 5, 255, 2, 2, 0, 4, 7, 200, 1, 0, 0})
	f.Add(uint8(0), []byte{4, 0, 255, 4, 0, 255, 0, 1, 0})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 1, 0, 4, 2, 255, 3, 1, 0, 4, 3, 219, 4, 3, 219, 4, 1, 219})
	// Fill order 3, 1, 2, 0 against way order, then renumber while way 1
	// is hammered: the untouched-by-burst ways must keep their order.
	f.Add(uint8(3), []byte{0, 6, 0, 0, 2, 0, 0, 4, 0, 0, 0, 0, 4, 2, 255, 1, 6, 0, 4, 4, 255})
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		const sets = 2
		ways := 1 + int(shape%16)
		p := NewLRU()
		p.Reset(sets, ways)
		defer p.Release()
		ref := newRefLRU(sets, ways)
		for i := 0; i+2 < len(ops); i += 3 {
			set, way := int(ops[i+1]&1), int(ops[i+1]>>1)%ways
			switch ops[i] % 5 {
			case 0:
				p.OnFill(set, way)
				ref.touch(set, way)
			case 1:
				if got, want := p.HitPositionTouch(set, way), ref.hitPosition(set, way); got != want {
					t.Fatalf("op %d: HitPositionTouch(%d, %d) = %d, want %d", i/3, set, way, got, want)
				}
				ref.touch(set, way)
			case 2:
				p.Promote(set, way)
				ref.touch(set, way)
			case 3:
				p.OnInvalidate(set, way)
			case 4:
				for n := int(ops[i+2]) * lruBurstUnit; n > 0; n-- {
					p.OnHit(set, way)
					ref.touch(set, way)
				}
			}
			for s := 0; s < sets; s++ {
				if got, want := p.Victim(s), ref.victim(s); got != want {
					t.Fatalf("op %d: set %d victim %d, want %d", i/3, s, got, want)
				}
				if got, want := p.StackEnd(s), ref.victim(s); got != want {
					t.Fatalf("op %d: set %d stack end %d, want %d", i/3, s, got, want)
				}
				for w := 0; w < ways; w++ {
					if got, want := p.AtStackEnd(s, w), ref.atStackEnd(s, w); got != want {
						t.Fatalf("op %d: set %d way %d AtStackEnd %v, want %v", i/3, s, w, got, want)
					}
					if got, want := p.HitPosition(s, w), ref.hitPosition(s, w); got != want {
						t.Fatalf("op %d: set %d way %d HitPosition %d, want %d", i/3, s, w, got, want)
					}
				}
			}
		}
	})
}

// TestLRURenumberKeepsOrder hammers one set far past the 16-bit rank
// range: the order the touches established survives every renumbering.
func TestLRURenumberKeepsOrder(t *testing.T) {
	const ways = 4
	p := NewLRU()
	p.Reset(1, ways)
	defer p.Release()
	p.OnFill(0, 2)
	p.OnFill(0, 0)
	for i := 0; i < 3*int(maxRank); i++ {
		p.OnHit(0, 3)
	}
	// Way 1 was never touched; then 2, 0, 3 from oldest to youngest.
	for w, want := range []int{1, 3, 2, 0} {
		if got := p.HitPosition(0, w); got != want {
			t.Errorf("way %d at position %d, want %d", w, got, want)
		}
	}
	if v := p.Victim(0); v != 1 {
		t.Errorf("victim %d, want the untouched way 1", v)
	}
}

// TestStackEndIsFirstAtStackEnd: for every policy, StackEnd is the
// lowest way for which AtStackEnd holds (-1 when none does), after
// arbitrary activity, and asking does not change the policy's answers.
func TestStackEndIsFirstAtStackEnd(t *testing.T) {
	for _, name := range Names() {
		for _, ways := range []int{1, 2, 8, 16} {
			if name == "plru" && ways == 1 {
				continue // pLRU needs at least two ways
			}
			p := MustNew(name, 5)
			p.Reset(4, ways)
			rng := rand.New(rand.NewPCG(21, uint64(ways)))
			for i := 0; i < 20_000; i++ {
				set, way := rng.IntN(4), rng.IntN(ways)
				switch rng.IntN(5) {
				case 0:
					p.OnFill(set, way)
				case 1:
					p.OnHit(set, way)
				case 2:
					p.Promote(set, way)
				case 3:
					p.OnInvalidate(set, way)
				case 4:
					if name != "nmru" { // nMRU's victim draw advances its stream
						p.Victim(set)
					}
				}
				want := -1
				for w := 0; w < ways; w++ {
					if p.AtStackEnd(set, w) {
						want = w
						break
					}
				}
				if got := p.StackEnd(set); got != want {
					t.Fatalf("%s/%d ways: op %d: StackEnd %d, want %d", name, ways, i, got, want)
				}
				if again := p.StackEnd(set); again != want {
					t.Fatalf("%s/%d ways: op %d: StackEnd changed state (%d then %d)", name, ways, i, want, again)
				}
			}
			p.Release()
		}
	}
}
