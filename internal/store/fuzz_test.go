package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// fuzzSegment writes one result into a fresh store and returns the
// store's segment bytes: one intact record.
func fuzzSegment(tb testing.TB, key string) []byte {
	tb.Helper()
	dir := tb.TempDir()
	s, err := Open(Options{Dir: dir, Fingerprint: "sim-fuzz"})
	if err != nil {
		tb.Fatal(err)
	}
	res := &sim.Result{Config: sim.Config{Mode: sim.PInTE, Workload: "w", PInduce: 0.25}, IPC: 0.75}
	if err := s.Put(key, res); err != nil {
		tb.Fatal(err)
	}
	s.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(segs) != 1 {
		tb.Fatalf("store holds segments %v (%v), want one", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// openFuzzed opens a store whose only segment holds data, failing the
// test if the open fails, and returns it with its directory.
func openFuzzed(t *testing.T, data []byte) (*Store, string) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir, Fingerprint: "sim-fuzz"})
	if err != nil {
		t.Fatalf("store open errored on plain input: %v", err)
	}
	return s, dir
}

// FuzzSegmentScan throws arbitrary bytes at the segment scan that
// rebuilds the store's index on open — the loader of every campaign's
// durable record. It fuzzes the scan's corruption contract: open never
// fails or panics on plain input, a torn tail is trimmed benignly, a
// corrupt record in the middle of a file is skipped and counted while
// every intact record after it is still indexed, and every indexed
// record reads back. Whatever garbage a damaged disk serves, resume
// degrades to re-running work, not to crashing or serving a wrong
// result.
func FuzzSegmentScan(f *testing.F) {
	real := fuzzSegment(f, "k")
	sentinel := fuzzSegment(f, "fuzz-sentinel")
	bitRot := bytes.Clone(real)
	bitRot[len(bitRot)/2] ^= 0x40
	f.Add(real)               // intact record
	f.Add(real[:len(real)/2]) // torn mid-append
	f.Add(bitRot)             // CRC mismatch
	f.Add(append(bytes.Clone(real), real[:len(real)/3]...))
	f.Add([]byte("!deadbeef {\"key\":\"k\"}\n"))
	f.Add([]byte("!zzzzzzzz {}\n")) // malformed hex
	f.Add([]byte("!00"))            // frame shorter than its prefix
	f.Add([]byte(`{"fp":"sim-fuzz","key":"k","result":{"IPC":1}}` + "\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{'})

	f.Fuzz(func(t *testing.T, data []byte) {
		diff := storeDelta()
		s, dir := openFuzzed(t, data)
		keys := s.Keys()
		for _, k := range keys {
			if _, ok := s.Peek(k); !ok {
				t.Fatalf("indexed record %q does not read back", k)
			}
		}
		s.Close()
		if d := diff()["torn_tails"]; d < 0 || d > 1 {
			t.Fatalf("open trimmed %d torn tails from one segment", d)
		}

		// The trimmed segment ends on a record boundary: a reopen finds
		// nothing left to trim and indexes the same records.
		diff = storeDelta()
		again, err := Open(Options{Dir: dir, Fingerprint: "sim-fuzz"})
		if err != nil {
			t.Fatal(err)
		}
		if diff()["torn_tails"] != 0 {
			t.Fatal("reopen found another torn tail")
		}
		if got := again.Keys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("reopen indexed %v, first open %v", got, keys)
		}
		again.Close()

		// Whatever precedes it, an intact record after the fuzzed bytes
		// is indexed.
		mid := bytes.Clone(data)
		if len(mid) > 0 && mid[len(mid)-1] != '\n' {
			mid = append(mid, '\n')
		}
		s, _ = openFuzzed(t, append(mid, sentinel...))
		if res, ok := s.Peek("fuzz-sentinel"); !ok || res.IPC != 0.75 {
			t.Fatalf("intact record after the fuzzed bytes lost: %v %v", res, ok)
		}
		s.Close()
	})
}
