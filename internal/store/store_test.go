package store

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// fakeResult fabricates a distinct, self-consistent result for key i.
// Store unit tests never run the simulator; byte-identity of the
// round-trip is what is under test.
func fakeResult(i int) *sim.Result {
	return &sim.Result{
		Config:   sim.Config{Workload: fmt.Sprintf("bench-%03d", i), Seed: uint64(i)},
		Instrs:   uint64(1000 + i),
		Cycles:   uint64(2000 + i),
		IPC:      0.5 + float64(i)/1000,
		MissRate: float64(i%100) / 100,
		ReuseHist: []uint64{
			uint64(i), uint64(i * 2), uint64(i * 3),
		},
	}
}

func fakeKey(i int) string { return fmt.Sprintf("%064x", i) }

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func openT(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// storeDelta snapshots the global store counters and returns a diff
// function, so tests assert deltas instead of absolute process totals.
func storeDelta() func() map[string]int64 {
	before := telemetry.StoreSnapshot()
	return func() map[string]int64 {
		after := telemetry.StoreSnapshot()
		out := make(map[string]int64, len(after))
		for k, v := range after {
			out[k] = v - before[k]
		}
		return out
	}
}

func TestPutGetReopenByteIdentical(t *testing.T) {
	dir := t.TempDir()
	const n = 20
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	want := make([][]byte, n)
	for i := 0; i < n; i++ {
		res := fakeResult(i)
		want[i] = mustJSON(t, res)
		if err := s.Put(fakeKey(i), res); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	check := func(s *Store, phase string) {
		t.Helper()
		for i := 0; i < n; i++ {
			res, ok := s.Get(fakeKey(i))
			if !ok {
				t.Fatalf("%s: Get %d missed", phase, i)
			}
			if got := mustJSON(t, res); string(got) != string(want[i]) {
				t.Fatalf("%s: entry %d not byte-identical:\n got %s\nwant %s", phase, i, got, want[i])
			}
		}
	}
	check(s, "warm")
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	if st := s2.Stats(); st.Entries != n {
		t.Fatalf("reopen: %d entries, want %d", st.Entries, n)
	}
	check(s2, "reopen")
	// A second value under the same key must shadow the first, across a
	// reopen too.
	upd := fakeResult(999)
	if err := s2.Put(fakeKey(0), upd); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	res, ok := s3.Get(fakeKey(0))
	if !ok || res.Instrs != upd.Instrs {
		t.Fatalf("updated entry not served after reopen: ok=%v res=%+v", ok, res)
	}
}

func TestFingerprintIsolation(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-old"})
	const n = 5
	for i := 0; i < n; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// A "changed simulator" build must see zero entries — and count the
	// stale records it skipped.
	diff := storeDelta()
	s2 := openT(t, Options{Dir: dir, Fingerprint: "sim-new"})
	if st := s2.Stats(); st.Entries != 0 {
		t.Fatalf("new fingerprint indexed %d stale entries", st.Entries)
	}
	for i := 0; i < n; i++ {
		if _, ok := s2.Get(fakeKey(i)); ok {
			t.Fatalf("stale hit for key %d under new fingerprint", i)
		}
	}
	if d := diff(); d["stale_skipped"] != n || d["hits"] != 0 {
		t.Fatalf("delta = %v, want stale_skipped=%d hits=0", d, n)
	}
	// Records under both fingerprints can coexist in one directory.
	if err := s2.Put(fakeKey(0), fakeResult(100)); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	// Reverting to the old build finds its records again.
	s3 := openT(t, Options{Dir: dir, Fingerprint: "sim-old"})
	if st := s3.Stats(); st.Entries != n {
		t.Fatalf("old fingerprint sees %d entries, want %d", st.Entries, n)
	}
	res, ok := s3.Get(fakeKey(0))
	if !ok || res.Instrs != fakeResult(0).Instrs {
		t.Fatalf("old-fingerprint record lost: ok=%v", ok)
	}
}

func TestTornTailRecoversBenignly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	for i := 0; i < 3; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	// Simulate a crash mid-append: a partial frame with no newline.
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`!deadbeef {"fp":"sim-test","key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	diff := storeDelta()
	s2 := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	if d := diff(); d["torn_tails"] != 1 || d["corrupt_records"] != 0 {
		t.Fatalf("delta = %v, want torn_tails=1 corrupt_records=0", d)
	}
	if st := s2.Stats(); st.Entries != 3 {
		t.Fatalf("torn tail cost entries: %d, want 3", st.Entries)
	}
	// The tail must be physically trimmed so the next append lands on a
	// clean boundary and a further reopen is quiet.
	if err := s2.Put(fakeKey(3), fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	diff = storeDelta()
	s3 := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	if d := diff(); d["torn_tails"] != 0 || d["corrupt_records"] != 0 {
		t.Fatalf("reopen after trim not clean: %v", d)
	}
	if st := s3.Stats(); st.Entries != 4 {
		t.Fatalf("entries after trim+append = %d, want 4", st.Entries)
	}
}

func TestCorruptRecordSkipsAndCounts(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	for i := 0; i < 3; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record; its CRC now fails but
	// the line structure (newlines) survives, so records after it load.
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected >=3 records in %s", segs[0])
	}
	mid := []byte(lines[1])
	mid[len(mid)/2] ^= 0xff
	lines[1] = string(mid)
	if err := os.WriteFile(segs[0], []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	diff := storeDelta()
	s2 := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	if d := diff(); d["corrupt_records"] != 1 {
		t.Fatalf("delta = %v, want corrupt_records=1", d)
	}
	if st := s2.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (one corrupt dropped)", st.Entries)
	}
	// Records on both sides of the corruption still serve.
	if _, ok := s2.Get(fakeKey(0)); !ok {
		t.Fatal("record before corruption lost")
	}
	if _, ok := s2.Get(fakeKey(2)); !ok {
		t.Fatal("record after corruption lost")
	}
	if _, ok := s2.Get(fakeKey(1)); ok {
		t.Fatal("corrupt record served")
	}
}

func TestGCEnforcesBudgetLRU(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so each Put rolls quickly; budget of ~4 segments.
	res := fakeResult(0)
	recBytes := len(mustJSON(t, record{FP: "sim-test", Key: fakeKey(0), Result: res})) + crcPrefixLen + 1
	segBytes := int64(recBytes + 1) // one record per segment
	budget := 4 * segBytes
	diff := storeDelta()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test", SegmentBytes: segBytes, BudgetBytes: budget})
	const n = 12
	for i := 0; i < n; i++ {
		if err := s.Put(fakeKey(i), fakeResult(0)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > budget {
		t.Fatalf("store %d bytes over %d budget", st.Bytes, budget)
	}
	d := diff()
	if d["evictions"] == 0 || d["evicted_bytes"] == 0 {
		t.Fatalf("no evictions recorded: %v", d)
	}
	// The most recent keys survive; the oldest were evicted.
	if _, ok := s.Get(fakeKey(n - 1)); !ok {
		t.Fatal("newest key evicted")
	}
	if _, ok := s.Get(fakeKey(0)); ok {
		t.Fatal("oldest key survived a full-budget sweep")
	}
	// LRU, not FIFO: touch an old survivor, fill past budget again, and
	// the untouched peers go first.
	keys := s.Keys()
	if len(keys) == 0 {
		t.Fatal("no keys left")
	}
	oldest := keys[0]
	if _, ok := s.Get(oldest); !ok {
		t.Fatalf("survivor %s unreadable", oldest[:8])
	}
	if err := s.Put(fakeKey(n), fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(oldest); !ok {
		t.Fatal("recently-hit segment evicted before colder peers")
	}
}

func TestGCNeverEvictsSegmentWithActiveReader(t *testing.T) {
	dir := t.TempDir()
	res := fakeResult(0)
	recBytes := len(mustJSON(t, record{FP: "sim-test", Key: fakeKey(0), Result: res})) + crcPrefixLen + 1
	segBytes := int64(recBytes + 1)
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test", SegmentBytes: segBytes, BudgetBytes: 3 * segBytes})
	if err := s.Put(fakeKey(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}

	readerIn := make(chan struct{})
	readerGo := make(chan struct{})
	testReadHook = func() {
		close(readerIn)
		<-readerGo
	}
	defer func() { testReadHook = nil }()

	readDone := make(chan bool)
	go func() {
		_, ok := s.Get(fakeKey(0))
		readDone <- ok
	}()
	<-readerIn
	testReadHook = nil

	// While the reader is parked mid-read, drive enough Puts that GC
	// must evict everything evictable — the pinned segment has the
	// lowest lastHit but must survive.
	for i := 1; i < 10; i++ {
		if err := s.Put(fakeKey(i), fakeResult(0)); err != nil {
			t.Fatal(err)
		}
	}
	close(readerGo)
	if ok := <-readDone; !ok {
		t.Fatal("active reader lost its segment to GC")
	}
}

func TestSingleFlightCollapsesDuplicates(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	const n = 16
	var computes, parked atomic.Int64
	block := make(chan struct{})
	testWaitHook = func() { parked.Add(1) }
	defer func() { testWaitHook = nil }()
	diff := storeDelta()
	var wg sync.WaitGroup
	results := make([]*sim.Result, n)
	vias := make([]Via, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, via, err := s.Do(context.Background(), fakeKey(0), func() (*sim.Result, error) {
				computes.Add(1)
				<-block // hold all duplicates in flight
				return fakeResult(7), nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i], vias[i] = res, via
		}(i)
	}
	// Wait for the leader to be computing and every other goroutine to
	// have joined its flight, then release.
	for computes.Load() == 0 || parked.Load() < n-1 {
		runtime.Gosched()
	}
	close(block)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	leaders, sharers := 0, 0
	for i := range vias {
		switch vias[i] {
		case ViaCompute:
			leaders++
		case ViaFlight, ViaHit:
			sharers++
		}
		if results[i] == nil || results[i].Instrs != fakeResult(7).Instrs {
			t.Fatalf("caller %d got wrong result %+v", i, results[i])
		}
	}
	if leaders != 1 || sharers != n-1 {
		t.Fatalf("leaders=%d sharers=%d, want 1/%d", leaders, sharers, n-1)
	}
	if d := diff(); d["singleflight_shared"] != n-1 {
		t.Fatalf("delta = %v, want singleflight_shared=%d", d, n-1)
	}
}

func TestSingleFlightPanickedLeaderWakesWaiters(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	var attempts atomic.Int64
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})

	// Leader: panics mid-compute.
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		s.Do(context.Background(), fakeKey(0), func() (*sim.Result, error) {
			attempts.Add(1)
			close(leaderIn)
			<-leaderGo
			panic("chaos: leader dies")
		})
	}()
	<-leaderIn

	// Waiter: must not inherit the panic — it wakes into its own attempt
	// and succeeds.
	diff := storeDelta()
	waiterParked := make(chan struct{})
	testWaitHook = func() {
		if waiterParked != nil {
			close(waiterParked)
			waiterParked = nil
		}
	}
	defer func() { testWaitHook = nil }()
	waiterDone := make(chan error, 1)
	parked := waiterParked
	go func() {
		res, _, err := s.Do(context.Background(), fakeKey(0), func() (*sim.Result, error) {
			attempts.Add(1)
			return fakeResult(1), nil
		})
		if err == nil && (res == nil || res.Instrs != fakeResult(1).Instrs) {
			err = fmt.Errorf("wrong result %+v", res)
		}
		waiterDone <- err
	}()
	<-parked // the waiter is on the leader's flight before the panic
	close(leaderGo)
	if r := <-leaderDone; r == nil {
		t.Fatal("leader panic swallowed — it must propagate to the caller's recovery")
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter after panicked leader: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2 (leader + woken waiter)", got)
	}
	if d := diff(); d["singleflight_retries"] != 1 {
		t.Fatalf("delta = %v, want singleflight_retries=1", d)
	}
}

func TestSingleFlightWaiterHonorsContext(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	go func() {
		s.Do(context.Background(), fakeKey(0), func() (*sim.Result, error) {
			close(leaderIn)
			<-leaderGo
			return fakeResult(0), nil
		})
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.Do(ctx, fakeKey(0), func() (*sim.Result, error) {
		t.Error("canceled waiter must not compute")
		return nil, nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(leaderGo)
}

func TestNilStoreIsNoCache(t *testing.T) {
	var s *Store
	if _, ok := s.Get("k"); ok {
		t.Fatal("nil store hit")
	}
	if err := s.Put("k", fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	res, via, err := s.Do(context.Background(), "k", func() (*sim.Result, error) { return fakeResult(3), nil })
	if err != nil || via != ViaCompute || res.Instrs != fakeResult(3).Instrs {
		t.Fatalf("nil Do: res=%+v via=%v err=%v", res, via, err)
	}
	if s.InFlight("k") {
		t.Fatal("nil store reports in-flight")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatal("nil stats")
	}
	if s.Keys() != nil || s.FingerprintID() != "" {
		t.Fatal("nil accessors")
	}
}

func TestParseFlag(t *testing.T) {
	cases := []struct {
		in     string
		dir    string
		budget int64
		err    bool
	}{
		{"cache", "cache", 0, false},
		{"/tmp/s,64", "/tmp/s", 64 << 20, false},
		{"/tmp/s, 8", "/tmp/s", 8 << 20, false},
		{",64", "", 0, true},
		{"d,notanum", "", 0, true},
		{"d,-3", "", 0, true},
	}
	for _, c := range cases {
		dir, budget, err := ParseFlag(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseFlag(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && (dir != c.dir || budget != c.budget) {
			t.Errorf("ParseFlag(%q) = (%q, %d), want (%q, %d)", c.in, dir, budget, c.dir, c.budget)
		}
	}
}

func TestFingerprintIsGenerated(t *testing.T) {
	fp := Fingerprint()
	if !strings.HasPrefix(fp, "sim-") || len(fp) != len("sim-")+16 {
		t.Fatalf("fingerprint %q is not sim-<16 hex>", fp)
	}
	if fp == "sim-bootstrap" {
		t.Fatal("fingerprint_gen.go still holds the bootstrap placeholder; run go generate ./internal/store")
	}
}

// TestSingleFlightPublishBeforeLeaderReturns checks Publish hands a
// flight's result to its waiter while the leader is still inside its
// compute, that the leader's own unwind and a repeated Publish are then
// no-ops, and that a BeginFlights release wakes only the waiters of the
// keys nobody published.
func TestSingleFlightPublishBeforeLeaderReturns(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	var parked atomic.Int64
	testWaitHook = func() { parked.Add(1) }
	defer func() { testWaitHook = nil }()

	waiter := func(key string) <-chan Via {
		got := make(chan Via, 1)
		go func() {
			res, via, err := s.Do(context.Background(), key, func() (*sim.Result, error) {
				return fakeResult(9), nil
			})
			if err != nil || res == nil {
				t.Errorf("waiter on %s: res=%v err=%v", key, res, err)
			}
			got <- via
		}()
		return got
	}

	published := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		s.Do(context.Background(), fakeKey(1), func() (*sim.Result, error) {
			for parked.Load() < 1 {
				runtime.Gosched()
			}
			s.Publish(fakeKey(1), fakeResult(1))
			<-published // still computing when the waiter wakes
			s.Publish(fakeKey(1), fakeResult(2))
			return fakeResult(1), nil
		})
	}()
	for !s.InFlight(fakeKey(1)) {
		runtime.Gosched()
	}
	if via := <-waiter(fakeKey(1)); via != ViaFlight {
		t.Fatalf("waiter via %d, want ViaFlight", via)
	}
	if s.InFlight(fakeKey(1)) {
		t.Fatal("published flight still in flight")
	}
	close(published)
	<-leaderDone

	parked.Store(0)
	claimed, release := s.BeginFlights([]string{fakeKey(2), fakeKey(3)})
	if !claimed[fakeKey(2)] || !claimed[fakeKey(3)] {
		t.Fatalf("claimed = %v, want both keys", claimed)
	}
	got2, got3 := waiter(fakeKey(2)), waiter(fakeKey(3))
	for parked.Load() < 2 {
		runtime.Gosched()
	}
	s.Publish(fakeKey(2), fakeResult(2))
	if via := <-got2; via != ViaFlight {
		t.Errorf("published key's waiter via %d, want ViaFlight", via)
	}
	release()
	if via := <-got3; via != ViaCompute {
		t.Errorf("unpublished key's waiter via %d, want ViaCompute (it leads its own attempt)", via)
	}
	release() // once-guarded
}

// TestGetPeekSizeAccounting: Get of several keys serves the first one
// stored and counts exactly one hit or one miss, Peek counts neither,
// and Size reports a stored record's bytes and 0 for an absent key.
func TestGetPeekSizeAccounting(t *testing.T) {
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	if err := s.Put(fakeKey(1), fakeResult(1)); err != nil {
		t.Fatal(err)
	}

	diff := storeDelta()
	res, ok := s.Get(fakeKey(0), fakeKey(1))
	if !ok || res.Instrs != fakeResult(1).Instrs {
		t.Fatalf("Get of an absent then a stored key = %v, %v", res, ok)
	}
	if _, ok := s.Get(fakeKey(0), fakeKey(2)); ok {
		t.Fatal("Get of two absent keys hit")
	}
	if d := diff(); d["hits"] != 1 || d["misses"] != 1 {
		t.Fatalf("delta = %v, want one hit and one miss", d)
	}

	diff = storeDelta()
	if _, ok := s.Peek(fakeKey(1)); !ok {
		t.Fatal("Peek missed a stored key")
	}
	if _, ok := s.Peek(fakeKey(0)); ok {
		t.Fatal("Peek hit an absent key")
	}
	if d := diff(); d["hits"] != 0 || d["misses"] != 0 {
		t.Fatalf("Peek counted: %v", d)
	}

	line := len(mustJSON(t, record{FP: "sim-test", Key: fakeKey(1), Result: fakeResult(1)}))
	if got, want := s.Size(fakeKey(1)), int64(crcPrefixLen+line+1); got != want {
		t.Fatalf("Size = %d, want %d (frame, payload and newline)", got, want)
	}
	if got := s.Size(fakeKey(0)); got != 0 {
		t.Fatalf("Size of an absent key = %d, want 0", got)
	}
}
