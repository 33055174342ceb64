package runner

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// framedLine frames one journal entry for a tiny config of workload w,
// with hist as its reuse histogram (a long one makes a long line).
func framedLine(t *testing.T, w string, ipc float64, hist []uint64) (string, []byte) {
	t.Helper()
	cfg := tinyCfg(w, 0.1)
	key, err := ConfigKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	line, err := frameEntry(key, &sim.Result{Config: cfg, IPC: ipc, ReuseHist: hist})
	if err != nil {
		t.Fatal(err)
	}
	return key, line
}

// allocBytes is the mean number of heap bytes one call of f allocates.
func allocBytes(f func()) int64 {
	const runs = 50
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestLoadJournalSmallFileAllocs checks the scan buffer is sized to the
// journal: loading a 3-entry journal costs its decoded results plus
// well under the 64 KiB a fixed-size buffer would take.
func TestLoadJournalSmallFileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	path := filepath.Join(t.TempDir(), "small.journal")
	var lines [][]byte
	for i := 0; i < 3; i++ {
		_, line := framedLine(t, fmt.Sprintf("w%d", i), float64(i+1), nil)
		lines = append(lines, line)
	}
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	// The floor any load pays: decoding the three entries into a map.
	decode := func() {
		done := make(map[string]*sim.Result)
		for _, line := range lines {
			var e journalEntry
			if err, _ := parseLine(line[:len(line)-1], &e); err != nil {
				t.Fatal(err)
			}
			done[e.Key] = e.Result
		}
	}
	load := func() {
		done, _, err := LoadJournal(path)
		if err != nil || len(done) != 3 {
			t.Fatalf("loaded %d entries (%v), want 3", len(done), err)
		}
	}
	floor, total := allocBytes(decode), allocBytes(load)
	t.Logf("load: %d B, decode: %d B", total, floor)
	if over := total - floor; over >= 16<<10 {
		t.Fatalf("loading a %d-byte journal allocated %d bytes over its %d-byte decode, want < 16 KiB",
			len(bytes.Join(lines, nil)), over, floor)
	}
}

// TestLoadJournalLongEntryKeepsTornTailAndCorruptClassification checks
// an entry longer than 64 KiB still loads with the file-sized buffer,
// and that corruption around it is classified exactly as before: a
// checksum failure mid-file is skipped and counted, and a torn final
// line — long or short — is a benign truncated tail.
func TestLoadJournalLongEntryKeepsTornTailAndCorruptClassification(t *testing.T) {
	hist := make([]uint64, 20_000)
	for i := range hist {
		hist[i] = uint64(i) * 7919
	}
	longKey, long := framedLine(t, "long", 1, hist)
	if len(long) <= 64<<10 {
		t.Fatalf("long entry is only %d bytes", len(long))
	}
	okKey, ok := framedLine(t, "ok", 3, nil)
	_, rotted := framedLine(t, "rot", 2, nil)
	// Valid JSON under a stale checksum: only the CRC can catch it.
	rotted = bytes.Replace(rotted, []byte(`"IPC":2`), []byte(`"IPC":7`), 1)
	_, short := framedLine(t, "torn", 4, nil)

	for name, tc := range map[string]struct {
		body []byte
		want []string // keys that must load
	}{
		"long entry first": {
			body: bytes.Join([][]byte{long, rotted, ok, short[:len(short)/2]}, nil),
			want: []string{longKey, okKey},
		},
		"long torn tail": {
			body: bytes.Join([][]byte{ok, rotted, long[:len(long)-100]}, nil),
			want: []string{okKey},
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.journal")
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatal(err)
			}
			done, st, err := LoadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			want := LoadStats{Entries: len(tc.want), Skipped: 1, CRCFailed: 1, TruncatedTail: true}
			if st != want || len(done) != len(tc.want) {
				t.Fatalf("stats %+v with %d entries, want %+v", st, len(done), want)
			}
			for _, k := range tc.want {
				if done[k] == nil {
					t.Fatalf("intact entry %s lost", k)
				}
			}
			if r := done[longKey]; r != nil && len(r.ReuseHist) != len(hist) {
				t.Fatalf("long entry decoded %d histogram buckets, want %d", len(r.ReuseHist), len(hist))
			}
		})
	}
}
