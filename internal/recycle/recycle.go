// Package recycle keeps the simulated machine's large per-run arrays —
// cache tags and blocks, per-set memos, replacement-policy state, branch
// predictor tables — alive across runs. A sweep builds the same machine
// for every P_Induce point; drawing those arrays from a pool instead of
// fresh heap lets a campaign allocate one machine per worker rather than
// one per run.
//
// The pools are sync.Pools, one per (element type, length), so they are
// GC-aware: arrays idle across two collections are dropped and the pool
// never pins more memory than recent runs used. Get always hands out
// zeroed memory, exactly like make, so a recycled machine starts in the
// same state as a freshly allocated one.
package recycle

import (
	"reflect"
	"sync"
)

type key struct {
	elem reflect.Type
	n    int
}

// pools maps key → *sync.Pool holding *[]T values of that length.
var pools sync.Map

func pool[T any](n int) *sync.Pool {
	k := key{reflect.TypeFor[T](), n}
	if p, ok := pools.Load(k); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(k, new(sync.Pool))
	return p.(*sync.Pool)
}

// Get returns a zeroed slice of n elements, recycled from an earlier Put
// of the same element type and length when one is available.
func Get[T any](n int) []T {
	if n <= 0 {
		return nil
	}
	if s, ok := pool[T](n).Get().(*[]T); ok {
		clear(*s)
		return *s
	}
	return make([]T, n)
}

// Put hands s back for a later Get of the same type and length. The
// caller must not touch s afterwards; nil and empty slices are ignored,
// so releasing an already-released owner is harmless.
func Put[T any](s []T) {
	if len(s) == 0 {
		return
	}
	pool[T](len(s)).Put(&s)
}
