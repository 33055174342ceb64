package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// frameLine frames payload as one segment line with a valid checksum:
// the sigil, the payload's crc32c in hex, a space, the payload and a
// newline.
func frameLine(payload []byte) []byte {
	return fmt.Appendf(nil, "!%08x %s\n", crc32.Checksum(payload, crcTable), payload)
}

// marshalLine is the segment line for one record built from
// json.Marshal, the reference the store's framing buffer must match.
func marshalLine(t testing.TB, fp, key string, res *sim.Result) []byte {
	t.Helper()
	payload, err := json.Marshal(record{FP: fp, Key: key, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return frameLine(payload)
}

// segmentBytes returns the concatenated bytes of dir's segments.
func segmentBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestPutFramingMatchesMarshal: the bytes Put appends are exactly the
// line json.Marshal's payload frames to, HTML-escaped characters
// included, and a record that cannot be encoded leaves no trace in the
// next record's line.
func TestPutFramingMatchesMarshal(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	var want []byte
	for i := 0; i < 5; i++ {
		res := fakeResult(i)
		res.Config.Workload = fmt.Sprintf("w<%d>& ", i)
		res.Samples = []sim.Sample{{Instrs: uint64(i), IPC: 0.1 * float64(i)}}
		if err := s.Put(fakeKey(i), res); err != nil {
			t.Fatal(err)
		}
		want = append(want, marshalLine(t, "sim-test", fakeKey(i), res)...)
		if i == 2 {
			bad := fakeResult(i)
			bad.IPC = math.NaN()
			if err := s.Put(fakeKey(100), bad); err == nil {
				t.Fatal("Put of an unencodable result succeeded")
			}
		}
	}
	if got := segmentBytes(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("segment bytes differ from json.Marshal framing:\n got %q\nwant %q", got, want)
	}
}

// scanAllocs reopens a store of n records whose results each carry
// hist histogram buckets and hist/2 samples, and returns what the
// reopen allocates per record: mallocs and bytes.
func scanAllocs(t *testing.T, n, hist int) (mallocs, bytes float64) {
	t.Helper()
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	for i := 0; i < n; i++ {
		res := fakeResult(i)
		res.ReuseHist = make([]uint64, hist)
		res.Samples = make([]sim.Sample, hist/2)
		for j := range res.ReuseHist {
			res.ReuseHist[j] = uint64(i*j + 1)
		}
		for j := range res.Samples {
			res.Samples[j] = sim.Sample{Instrs: uint64(j), IPC: float64(i+j) / 7}
		}
		if err := s.Put(fakeKey(i), res); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		again, err := Open(Options{Dir: dir, Fingerprint: "sim-test"})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := again.Stats().Entries; got != n {
			t.Fatalf("reopen indexed %d records, want %d", got, n)
		}
		again.Close()
		// Noise from other goroutines only adds: keep the smallest round.
		if b := float64(after.TotalAlloc - before.TotalAlloc); b < best {
			best = b
			mallocs = float64(after.Mallocs-before.Mallocs) / float64(n)
		}
	}
	return mallocs, best / float64(n)
}

// TestOpenScanAllocs: reopening a store allocates per record what its
// index needs, not what its results hold. Each record's result decodes
// into the open's one reused target, so making every result ten times
// larger leaves the per-record cost where it was.
func TestOpenScanAllocs(t *testing.T) {
	const n = 200
	smallN, smallB := scanAllocs(t, n, 40)
	bigN, bigB := scanAllocs(t, n, 400)
	t.Logf("per record: %.1f allocs, %.0f B (results ×1); %.1f allocs, %.0f B (results ×10)", smallN, smallB, bigN, bigB)
	if bigN > smallN+1 {
		t.Errorf("a reopen allocates %.1f times per record with 10× larger results, %.1f with ×1", bigN, smallN)
	}
	if bigB > 1.5*smallB {
		t.Errorf("a reopen allocates %.0f B per record with 10× larger results, %.0f B with ×1: more than 1.5×", bigB, smallB)
	}
}

// badRecords are well-framed lines, each with a valid checksum, whose
// payload is not a servable record.
var badRecords = map[string]string{
	"null result":         `{"fp":"sim-fuzz","key":"bad","result":null}`,
	"spaced null result":  `{"fp":"sim-fuzz","key":"bad","result" : null }`,
	"number result":       `{"fp":"sim-fuzz","key":"bad","result":5}`,
	"wrongly typed field": `{"fp":"sim-fuzz","key":"bad","result":{"IPC":"fast","Instrs":7}}`,
	"empty key":           `{"fp":"sim-fuzz","key":"","result":{"IPC":1}}`,
	"missing key":         `{"fp":"sim-fuzz","result":{"IPC":1}}`,
	"missing result":      `{"fp":"sim-fuzz","key":"bad"}`,
}

// TestScanSkipsWellFramedBadRecords: a record whose checksum holds but
// whose payload does not decode to a keyed result is counted corrupt
// and not indexed, whatever intact record precedes it, and the intact
// record after it is still indexed and reads back.
func TestScanSkipsWellFramedBadRecords(t *testing.T) {
	before := fuzzSegment(t, "before")
	after := fuzzSegment(t, "fuzz-sentinel")
	for name, payload := range badRecords {
		t.Run(name, func(t *testing.T) {
			data := append(append(bytes.Clone(before), frameLine([]byte(payload))...), after...)
			diff := storeDelta()
			s, _ := openFuzzed(t, data)
			defer s.Close()
			if d := diff()["corrupt_records"]; d != 1 {
				t.Fatalf("corrupt_records delta %d, want 1", d)
			}
			if got := s.Keys(); len(got) != 2 || got[0] != "before" || got[1] != "fuzz-sentinel" {
				t.Fatalf("indexed %q, want only the two intact records", got)
			}
			if res, ok := s.Peek("fuzz-sentinel"); !ok || res.IPC != 0.75 {
				t.Fatalf("intact record after the bad one: %v %v", res, ok)
			}
		})
	}
}

// TestScanIndexesSparseResult: a result that carries none of the fields
// a written result always has still decodes, so it is indexed and reads
// back, as the full decode of a read-back sees it.
func TestScanIndexesSparseResult(t *testing.T) {
	for _, payload := range []string{
		`{"fp":"sim-fuzz","key":"odd","result":{}}`,
		`{"fp":"sim-fuzz","key":"odd","result":null,"result":{"IPC":2}}`,
	} {
		data := append(fuzzSegment(t, "before"), frameLine([]byte(payload))...)
		diff := storeDelta()
		s, _ := openFuzzed(t, data)
		if d := diff()["corrupt_records"]; d != 0 {
			t.Fatalf("%s: corrupt_records delta %d, want 0", payload, d)
		}
		if _, ok := s.Peek("odd"); !ok {
			t.Fatalf("%s: not indexed or not read back", payload)
		}
		s.Close()
	}
}

// TestScanLongLine: a record longer than the scan's line reader is
// gathered whole, indexed at its true offset, and reads back, as does
// the short record after it.
func TestScanLongLine(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, Options{Dir: dir, Fingerprint: "sim-test", SegmentBytes: 1 << 30})
	long := fakeResult(1)
	long.ReuseHist = make([]uint64, 3*scanBufBytes/8)
	for i := range long.ReuseHist {
		long.ReuseHist[i] = uint64(i) * 1_000_003
	}
	if n := len(marshalLine(t, "sim-test", fakeKey(1), long)); n <= 2*scanBufBytes {
		t.Fatalf("test record is %d bytes, want over twice the %d-byte reader", n, scanBufBytes)
	}
	for i, res := range []*sim.Result{fakeResult(0), long, fakeResult(2)} {
		if err := s.Put(fakeKey(i), res); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	again := openT(t, Options{Dir: dir, Fingerprint: "sim-test"})
	for i, res := range []*sim.Result{fakeResult(0), long, fakeResult(2)} {
		got, ok := again.Get(fakeKey(i))
		if !ok {
			t.Fatalf("record %d missed after reopen", i)
		}
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, res)) {
			t.Fatalf("record %d read back changed", i)
		}
	}
}
