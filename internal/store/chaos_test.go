package store

import (
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestChaosStoreOpen: an injected open failure yields a typed error and
// the open_errors counter, so the caller can refuse to run a campaign
// whose durable record is unavailable.
func TestChaosStoreOpen(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	fault.Set(fault.SiteStoreOpen, fault.Spec{Every: 1, Limit: 1})

	diff := storeDelta()
	_, err := Open(Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}
	if d := diff(); d["open_errors"] != 1 {
		t.Fatalf("delta = %v, want open_errors=1", d)
	}
	// The fire budget is spent; the retry (a fresh process) opens fine.
	s, err := Open(Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	if err != nil {
		t.Fatalf("second open: %v", err)
	}
	s.Close()
}

// TestChaosStoreAppend: an injected append failure is typed and
// counted, loses only that record, and leaves the store serving —
// earlier entries still hit and later appends still land.
func TestChaosStoreAppend(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	if err := s.Put(fakeKey(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}

	fault.Set(fault.SiteStoreAppend, fault.Spec{Every: 1, Limit: 1})
	diff := storeDelta()
	err := s.Put(fakeKey(1), fakeResult(1))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}
	if d := diff(); d["put_errors"] != 1 || d["puts"] != 0 {
		t.Fatalf("delta = %v, want put_errors=1 puts=0", d)
	}
	if _, ok := s.Get(fakeKey(0)); !ok {
		t.Fatal("pre-fault entry lost")
	}
	if _, ok := s.Get(fakeKey(1)); ok {
		t.Fatal("failed append served")
	}
	if err := s.Put(fakeKey(2), fakeResult(2)); err != nil {
		t.Fatalf("append after fault: %v", err)
	}
	if _, ok := s.Get(fakeKey(2)); !ok {
		t.Fatal("post-fault append missing")
	}
}

// TestChaosStoreRead: an injected read-back failure degrades the hit to
// a counted miss and drops the index entry, so the caller recomputes;
// the rest of the store keeps serving.
func TestChaosStoreRead(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	s := openT(t, Options{Dir: t.TempDir(), Fingerprint: "sim-test"})
	for i := 0; i < 2; i++ {
		if err := s.Put(fakeKey(i), fakeResult(i)); err != nil {
			t.Fatal(err)
		}
	}

	fault.Set(fault.SiteStoreRead, fault.Spec{Every: 1, Limit: 1})
	diff := storeDelta()
	if _, ok := s.Get(fakeKey(0)); ok {
		t.Fatal("faulted read served a result")
	}
	d := diff()
	if d["read_errors"] != 1 || d["misses"] != 1 || d["hits"] != 0 {
		t.Fatalf("delta = %v, want read_errors=1 misses=1 hits=0", d)
	}
	// The entry was dropped — the caller recomputes and may Put again.
	if _, ok := s.Get(fakeKey(0)); ok {
		t.Fatal("dropped entry still indexed")
	}
	if _, ok := s.Get(fakeKey(1)); !ok {
		t.Fatal("unrelated entry lost to a read fault")
	}
	if err := s.Put(fakeKey(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fakeKey(0)); !ok {
		t.Fatal("re-put after read fault missed")
	}
}

// TestChaosStoreAppendPartial: an append that dies mid-record is typed
// and counted, later appends land in a fresh segment instead of being
// glued onto the debris, and the next open trims the torn record as a
// benign torn tail — every other record survives.
func TestChaosStoreAppendPartial(t *testing.T) {
	fault.Enable(1)
	defer fault.Disable()
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	if err := s.Put(fakeKey(0), fakeResult(0)); err != nil {
		t.Fatal(err)
	}
	fault.Set(fault.SiteStoreAppendPartial, fault.Spec{Every: 1, Limit: 1})
	diff := storeDelta()
	if err := s.Put(fakeKey(1), fakeResult(1)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want wrapped fault.ErrInjected", err)
	}
	if d := diff(); d["put_errors"] != 1 || d["puts"] != 0 {
		t.Fatalf("delta = %v, want put_errors=1 puts=0", d)
	}
	if err := s.Put(fakeKey(2), fakeResult(2)); err != nil {
		t.Fatalf("append after a torn one: %v", err)
	}
	if st := s.Stats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want the torn one retired and a fresh one written", st.Segments)
	}
	s.Close()

	diff = storeDelta()
	s2 := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	if d := diff(); d["torn_tails"] != 1 || d["corrupt_records"] != 0 {
		t.Fatalf("reopen delta = %v, want torn_tails=1 corrupt_records=0", d)
	}
	for i, want := range []bool{true, false, true} {
		if _, ok := s2.Get(fakeKey(i)); ok != want {
			t.Fatalf("record %d stored = %v after reopen, want %v", i, ok, want)
		}
	}
}
