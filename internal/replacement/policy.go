// Package replacement implements the last-level-cache replacement
// policies the PInTE paper evaluates (LRU, pseudo-LRU, not-MRU, RRIP),
// behind a single interface that also exposes the hook surface PInTE
// needs: stack position queries, promotion, and victim selection.
//
// Positions use the convention 0 = most-recently-used end of the
// replacement stack and ways-1 = eviction end.
package replacement

import "fmt"

// Policy is a per-cache replacement policy instance. Implementations keep
// all per-set state internally; the owning cache calls Reset once with its
// geometry before use. A Policy is not safe for concurrent use.
type Policy interface {
	// Name returns the canonical policy name ("lru", "plru", "nmru",
	// "rrip").
	Name() string

	// Reset (re)initialises state for a cache with the given geometry.
	// Its per-set arrays come from internal/recycle, zeroed and then
	// initialised exactly as a fresh allocation would be.
	Reset(sets, ways int)

	// Release hands the per-set state back for reuse; the policy is
	// unusable until the next Reset. Releasing twice is harmless.
	Release()

	// OnFill records that way in set was filled with a new block.
	OnFill(set, way int)

	// OnHit records a demand hit on way in set.
	OnHit(set, way int)

	// Victim selects the way to evict from a full set.
	Victim(set int) int

	// AtStackEnd reports whether way currently sits at the eviction end
	// of set's replacement stack — i.e. whether it is the block the
	// policy would victimise next. PInTE's BLOCK-SELECT state uses
	// this to find injection targets.
	AtStackEnd(set, way int) bool

	// StackEnd returns the lowest way for which AtStackEnd holds, or -1
	// when none does, without changing any state: one pass over the set
	// where a way-by-way AtStackEnd scan costs one pass per way.
	StackEnd(set int) int

	// Promote moves way to the most-recently-used end of the stack, as
	// if it had just been inserted. PInTE's PROMOTE state uses this to
	// mimic an adversary's insertion.
	Promote(set, way int)

	// HitPosition returns the stack depth of way at the moment of a
	// hit, in [0, ways-1]; reuse-distance histograms are built from it.
	// For policies without a total order (pLRU, nMRU, RRIP) the value
	// is the policy's natural approximation.
	HitPosition(set, way int) int

	// OnInvalidate records that way in set was invalidated (by
	// back-invalidation, exclusive-hit promotion, or PInTE).
	OnInvalidate(set, way int)
}

// Names lists the policies available through New, in the paper's order.
func Names() []string { return []string{"lru", "plru", "nmru", "rrip"} }

// New builds a policy by name. seed feeds policies that randomise victim
// choice (nMRU); deterministic policies ignore it.
func New(name string, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "plru":
		return NewPLRU(), nil
	case "nmru":
		return NewNMRU(seed), nil
	case "rrip":
		return NewRRIP(), nil
	}
	return nil, fmt.Errorf("replacement: unknown policy %q", name)
}

// MustNew is New that panics on unknown names.
func MustNew(name string, seed uint64) Policy {
	p, err := New(name, seed)
	if err != nil {
		panic(err)
	}
	return p
}
