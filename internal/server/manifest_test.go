package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// testMeta is a finished-looking manifest record for campaign i.
func testMeta(i int) CampaignMeta {
	created := time.Date(2026, 1, 2, 3, 4, 5, i, time.UTC)
	return CampaignMeta{
		ID: fmt.Sprintf("c-%016x", i), Tenant: fmt.Sprintf("tenant-%d", i%3),
		Spec: tinySpec(0.05, 0.3).normalized(), State: StateDone, Runs: 3, Weight: 1,
		Created: created, Finished: created.Add(time.Minute),
	}
}

// campaignsJSON renders a store's records for comparison.
func campaignsJSON(t *testing.T, st *Store) string {
	t.Helper()
	b, err := json.Marshal(st.Campaigns())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeManifestReadsIndentedAndCompact checks a manifest.json in the
// older indented form still opens, and that the compact form a save now
// writes reopens to the same records.
func TestServeManifestReadsIndentedAndCompact(t *testing.T) {
	dir := t.TempDir()
	m := manifest{Campaigns: map[string]*CampaignMeta{}}
	for i := 0; i < 3; i++ {
		meta := testMeta(i)
		m.Campaigns[meta.ID] = &meta
	}
	indented, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, append(indented, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("opening an indented manifest: %v", err)
	}
	if got := len(st.Campaigns()); got != 3 {
		t.Fatalf("indented manifest opened with %d campaigns, want 3", got)
	}
	extra := testMeta(3)
	if err := st.Put(extra); err != nil {
		t.Fatal(err)
	}
	want := campaignsJSON(t, st)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("\n ")) || !bytes.HasSuffix(raw, []byte("}\n")) {
		t.Fatalf("saved manifest is not one compact JSON line:\n%.200s", raw)
	}
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("reopening the compact manifest: %v", err)
	}
	if got := campaignsJSON(t, again); got != want {
		t.Fatalf("compact manifest round trip changed the records:\n got %s\nwant %s", got, want)
	}
}

// TestServeManifestSaveAllocs checks a manifest save encodes into the
// store's reused buffer: saving 100 campaigns allocates less than half
// of what marshalling them with indentation alone does.
func TestServeManifestSaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		meta := testMeta(i)
		st.m.Campaigns[meta.ID] = &meta
	}
	save := func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		if err := st.saveLocked(); err != nil {
			t.Fatal(err)
		}
	}
	indent := func() {
		if _, err := json.MarshalIndent(&st.m, "", "  "); err != nil {
			t.Fatal(err)
		}
	}
	saved, indented := allocBytes(save), allocBytes(indent)
	t.Logf("save: %d B, MarshalIndent: %d B", saved, indented)
	if saved*2 >= indented {
		t.Fatalf("a 100-campaign save allocated %d bytes, want under half of MarshalIndent's %d", saved, indented)
	}
}

// allocBytes is the mean number of heap bytes one call of f allocates.
func allocBytes(f func()) int64 {
	const runs = 20
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}
