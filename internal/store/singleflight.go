package store

import (
	"context"
	"sync"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// flight is one in-progress computation of a config key. Waiters block
// on done; the leader fills res/ok before closing it. ok stays false
// when the leader failed or panicked, waking waiters into their own
// attempts instead of handing them a result that does not exist.
type flight struct {
	done chan struct{}
	res  *sim.Result
	ok   bool
}

// Via reports how Do satisfied a request.
type Via int

const (
	// ViaCompute: this caller was the leader and ran compute itself.
	ViaCompute Via = iota
	// ViaFlight: another caller's in-flight computation was shared.
	ViaFlight
	// ViaHit: the store already held the result.
	ViaHit
)

// testWaitHook, when non-nil, runs just before a duplicate caller
// parks on an existing flight; tests use it to sequence waiters
// deterministically against their leader.
var testWaitHook func()

// Do returns the result for key, computing it at most once across all
// concurrent callers of this store: the first caller for a key becomes
// the leader and runs compute; every concurrent duplicate — another
// campaign, another pinted tenant — blocks on the leader instead of
// burning a worker on the same simulation. A leader that fails or
// panics is chaos-safe: its waiters wake into their own attempts (one
// of them becomes the next leader) rather than inheriting the failure.
//
// Do does not write the store; the leader's compute persists the result
// itself (Put, then Publish), so waiters only ever receive a result that
// is already stored. A result compute did not publish is handed to the
// waiters when compute returns. On a nil store Do degrades to calling
// compute.
func (s *Store) Do(ctx context.Context, key string, compute func() (*sim.Result, error)) (*sim.Result, Via, error) {
	if s == nil {
		res, err := compute()
		return res, ViaCompute, err
	}
	for {
		// The store may have gained the entry since the caller's initial
		// lookup (a leader finished and Put); misses here are not counted
		// — the caller already counted its original miss.
		if res, ok := s.Lookup(key); ok {
			return res, ViaHit, nil
		}
		s.fmu.Lock()
		if f, ok := s.flights[key]; ok {
			s.fmu.Unlock()
			if testWaitHook != nil {
				testWaitHook()
			}
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, ViaFlight, ctx.Err()
			}
			if f.ok {
				telemetry.StoreC.SingleFlightShared.Add(1)
				return f.res, ViaFlight, nil
			}
			// Leader failed or panicked: retry, possibly becoming the new
			// leader ourselves.
			telemetry.StoreC.SingleFlightRetries.Add(1)
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.fmu.Unlock()

		var (
			res *sim.Result
			err error
		)
		func() {
			// The deferred land runs even when compute panics, so waiters
			// are always released; the panic itself propagates to the
			// caller's recovery (the runner's safeCall). It is a no-op
			// when compute already published the flight.
			defer func() {
				var out *sim.Result
				if err == nil {
					out = res
				}
				s.land(key, f, out)
			}()
			res, err = compute()
		}()
		return res, ViaCompute, err
	}
}

// land ends key's flight f (any flight of key when f is nil): res, when
// non-nil, is handed to its waiters, and a nil res wakes them into their
// own attempts. Only the caller that removes the flight from the table
// closes it, so landing an already-landed flight is a no-op.
func (s *Store) land(key string, f *flight, res *sim.Result) {
	s.fmu.Lock()
	cur, ok := s.flights[key]
	if !ok || (f != nil && cur != f) {
		s.fmu.Unlock()
		return
	}
	delete(s.flights, key)
	s.fmu.Unlock()
	if res != nil {
		cur.res, cur.ok = res, true
	}
	close(cur.done)
}

// Publish ends key's flight with res, handing it to every waiter now
// rather than when the leader's Do or BeginFlights claim unwinds. The
// runner publishes each computed result right after persisting it, so a
// shared result is always already in the store. Publishing a key with no
// flight is a no-op.
func (s *Store) Publish(key string, res *sim.Result) {
	if s == nil || res == nil {
		return
	}
	s.land(key, nil, res)
}

// BeginFlights claims leadership of every key not already in flight, in
// one atomic sweep — the fan-out path's single-flight: a group about to
// execute claims its points so concurrent campaigns running the same
// configs wait instead of recomputing, and points another campaign
// already claimed are reported unclaimed so the caller can defer them
// to a waiting path. Each claimed key's result is handed over with
// Publish; the returned release must be called exactly once (deferred,
// so a panicking group still releases its waiters) and wakes the
// waiters of every claimed key not published into their own attempts.
// On a nil store nothing is claimed.
func (s *Store) BeginFlights(keys []string) (claimed map[string]bool, release func()) {
	if s == nil {
		return nil, func() {}
	}
	claimed = make(map[string]bool, len(keys))
	var ck []string
	var fl []*flight
	s.fmu.Lock()
	for _, k := range keys {
		if claimed[k] {
			continue
		}
		if _, ok := s.flights[k]; ok {
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[k] = f
		claimed[k] = true
		ck = append(ck, k)
		fl = append(fl, f)
	}
	s.fmu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			for j, f := range fl {
				s.land(ck[j], f, nil)
			}
		})
	}
	return claimed, release
}

// InFlight reports whether key currently has a leader computing it.
// The campaign service uses it at admission time to label collapsed
// duplicates; the answer is advisory (it can change immediately).
func (s *Store) InFlight(key string) bool {
	if s == nil {
		return false
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	_, ok := s.flights[key]
	return ok
}
