// Package branch implements the four branch predictors the PInTE case
// study evaluates: bimodal, GShare, perceptron and hashed perceptron.
package branch

import (
	"fmt"

	"repro/internal/recycle"
)

// Predictor guesses conditional branch directions. Predict returns the
// guess for pc; Update trains with the resolved outcome. Implementations
// keep their own history registers.
type Predictor interface {
	Name() string
	Predict(pc uint64) bool
	Update(pc uint64, taken bool)
}

// Names lists the available predictors in the paper's order.
func Names() []string {
	return []string{"bimodal", "gshare", "perceptron", "hashed-perceptron"}
}

// New builds a predictor by name.
func New(name string) (Predictor, error) {
	switch name {
	case "bimodal":
		return NewBimodal(14), nil
	case "gshare":
		return NewGShare(16), nil
	case "perceptron":
		return NewPerceptron(10, 24), nil
	case "hashed-perceptron":
		return NewHashedPerceptron(), nil
	}
	return nil, fmt.Errorf("branch: unknown predictor %q", name)
}

// MustNew is New that panics on unknown names.
func MustNew(name string) Predictor {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Bimodal is a table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	counters []int8
	mask     uint64
}

// NewBimodal builds a bimodal predictor with 2^bits counters.
func NewBimodal(bits uint) *Bimodal {
	n := 1 << bits
	return &Bimodal{counters: make([]int8, n), mask: uint64(n - 1)}
}

// Name implements Predictor.
func (b *Bimodal) Name() string { return "bimodal" }

func (b *Bimodal) idx(pc uint64) uint64 { return (pc >> 2) & b.mask }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.counters[b.idx(pc)] >= 0 }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	c := &b.counters[b.idx(pc)]
	*c = saturate2(*c, taken)
}

// saturate2 updates a 2-bit counter stored in [-2, 1].
func saturate2(c int8, taken bool) int8 {
	if taken {
		if c < 1 {
			c++
		}
	} else if c > -2 {
		c--
	}
	return c
}

// GShare XORs a global history register with the PC to index a table of
// 2-bit counters.
type GShare struct {
	counters []int8
	mask     uint64
	history  uint64
	histBits uint
}

// NewGShare builds a GShare predictor with 2^bits counters and bits of
// global history.
func NewGShare(bits uint) *GShare {
	n := 1 << bits
	return &GShare{counters: make([]int8, n), mask: uint64(n - 1), histBits: bits}
}

// Name implements Predictor.
func (g *GShare) Name() string { return "gshare" }

func (g *GShare) idx(pc uint64) uint64 {
	return ((pc >> 2) ^ g.history) & g.mask
}

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.counters[g.idx(pc)] >= 0 }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	c := &g.counters[g.idx(pc)]
	*c = saturate2(*c, taken)
	g.history = (g.history<<1 | b2u(taken)) & g.mask
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Perceptron is Jiménez & Lin's perceptron predictor: one weight vector
// per PC hash, dot-producted with the global history.
type Perceptron struct {
	weights  [][]int16 // [entry][histLen+1], index 0 is the bias
	history  []int8    // +1 taken, -1 not taken
	mask     uint64
	histLen  int
	theta    int32
	lastSum  int32
	lastPred bool
}

// NewPerceptron builds a perceptron predictor with 2^indexBits entries
// and histLen bits of history.
func NewPerceptron(indexBits uint, histLen int) *Perceptron {
	n := 1 << indexBits
	w := make([][]int16, n)
	for i := range w {
		w[i] = make([]int16, histLen+1)
	}
	return &Perceptron{
		weights: w,
		history: make([]int8, histLen),
		mask:    uint64(n - 1),
		histLen: histLen,
		// The classic threshold heuristic from the HPCA'01 paper.
		theta: int32(1.93*float64(histLen) + 14),
	}
}

// Name implements Predictor.
func (p *Perceptron) Name() string { return "perceptron" }

func (p *Perceptron) idx(pc uint64) uint64 { return (pc >> 2) & p.mask }

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool {
	w := p.weights[p.idx(pc)]
	sum := int32(w[0])
	for i := 0; i < p.histLen; i++ {
		sum += int32(w[i+1]) * int32(p.history[i])
	}
	p.lastSum = sum
	p.lastPred = sum >= 0
	return p.lastPred
}

// Update implements Predictor. It must be called after Predict for the
// same branch (the simulator's per-instruction flow guarantees this).
func (p *Perceptron) Update(pc uint64, taken bool) {
	t := int32(-1)
	if taken {
		t = 1
	}
	if p.lastPred != taken || abs32(p.lastSum) <= p.theta {
		w := p.weights[p.idx(pc)]
		w[0] = satW(w[0], t)
		for i := 0; i < p.histLen; i++ {
			w[i+1] = satW(w[i+1], t*int32(p.history[i]))
		}
	}
	copy(p.history[1:], p.history[:p.histLen-1])
	if taken {
		p.history[0] = 1
	} else {
		p.history[0] = -1
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func satW(w int16, delta int32) int16 {
	v := int32(w) + delta
	const lim = 127
	if v > lim {
		v = lim
	}
	if v < -lim {
		v = -lim
	}
	return int16(v)
}

// HashedPerceptron sums small weight tables indexed by hashes of the PC
// with geometric history lengths — the organisation used by production
// predictors and by ChampSim's "hashed perceptron" baseline.
type HashedPerceptron struct {
	// tables holds the per-history-length weight tables flattened into
	// one slice (table t occupies tables[t<<indexBits:(t+1)<<indexBits]):
	// the predict/update loops then walk a single backing array instead
	// of chasing one slice header per table.
	tables   []int16
	lens     []int
	history  uint64 // packed global history, newest bit 0
	mask     uint64
	theta    int32
	lastSum  int32
	lastPred bool
	lastIdx  []uint64 // flat indices into tables
}

const hpIndexBits = 12

// NewHashedPerceptron builds the default 8-table configuration with
// history lengths 0..64.
func NewHashedPerceptron() *HashedPerceptron {
	lens := []int{0, 2, 4, 8, 16, 24, 32, 64}
	n := 1 << hpIndexBits
	return &HashedPerceptron{
		tables:  recycle.Get[int16](len(lens) * n),
		lens:    lens,
		mask:    uint64(n - 1),
		theta:   int32(1.93*float64(len(lens)) + 14),
		lastIdx: make([]uint64, len(lens)),
	}
}

// Release hands the weight tables back for the next predictor built;
// the predictor is unusable afterwards.
func (h *HashedPerceptron) Release() {
	recycle.Put(h.tables)
	h.tables = nil
}

// Name implements Predictor.
func (h *HashedPerceptron) Name() string { return "hashed-perceptron" }

func (h *HashedPerceptron) indexFor(pc uint64, t int) uint64 {
	hl := h.lens[t]
	hist := h.history
	if hl < 64 {
		hist &= 1<<uint(hl) - 1
	}
	x := pc>>2 ^ hist*0x9e3779b97f4a7c15 ^ uint64(t)<<57
	x ^= x >> 29
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 32
	return x & h.mask
}

// Predict implements Predictor.
func (h *HashedPerceptron) Predict(pc uint64) bool {
	sum := int32(0)
	for t := range h.lens {
		idx := uint64(t)<<hpIndexBits | h.indexFor(pc, t)
		h.lastIdx[t] = idx
		sum += int32(h.tables[idx])
	}
	h.lastSum = sum
	h.lastPred = sum >= 0
	return h.lastPred
}

// Update implements Predictor; call after Predict for the same branch.
func (h *HashedPerceptron) Update(pc uint64, taken bool) {
	if h.lastPred != taken || abs32(h.lastSum) <= h.theta {
		delta := int32(-1)
		if taken {
			delta = 1
		}
		for _, idx := range h.lastIdx {
			w := &h.tables[idx]
			*w = satW(*w, delta)
		}
	}
	h.history = h.history<<1 | b2u(taken)
}
