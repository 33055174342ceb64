package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/fault"
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

// encodedManifest is what json.Encoder writes for m: the bytes every
// save must leave in manifest.json.
func encodedManifest(t *testing.T, m *manifest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeManifestMatchesEncoder drives a seeded random sequence of
// Put, SetState and Delete, with the manifest write failing on chosen
// saves, against a model that applies only the operations that
// succeeded. After every operation manifest.json must be exactly what
// json.Encoder writes for the in-memory manifest, and the in-memory
// manifest exactly the model: a failed save rolls back the record and
// its encoded bytes together, so the next successful save writes the
// rolled-back record. IDs and tenants carry <, & and > to check the
// encoder's HTML escaping is kept; a reopen must read the same records
// and save the same bytes.
func TestServeManifestMatchesEncoder(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fault.Disable()
	ids := []string{"c-b", "c-<a>", "c-&", "c->", "c-a", "c-a&b", "c-\u00e9", "c-z"}
	tenants := []string{"alice", "<bob>", "carol&dave"}
	states := []CampaignState{StateActive, StateDone, StateFailed, StateCanceled}
	model := manifest{Campaigns: map[string]*CampaignMeta{}}
	path := filepath.Join(dir, "manifest.json")
	rng := rand.New(rand.NewPCG(29, 1))
	fails := 0
	for op := 0; op < 400; op++ {
		fail := op > 0 && rng.IntN(4) == 0
		fault.Disable()
		if fail {
			fault.Enable(uint64(op))
			fault.Set(fault.SiteServerManifest, fault.Spec{Every: 1, Limit: 1})
		}
		id := ids[rng.IntN(len(ids))]
		_, known := model.Campaigns[id]
		saves := true
		var what string
		switch k := rng.IntN(5); {
		case k < 2 || op == 0:
			meta := testMeta(op)
			meta.ID, meta.Tenant, meta.State = id, tenants[rng.IntN(len(tenants))], StateActive
			meta.Finished = time.Time{}
			what, err = "Put "+id, st.Put(meta)
			if err == nil {
				model.Campaigns[id] = &meta
			}
		case k < 4:
			state := states[rng.IntN(len(states))]
			received := []int{rng.IntN(3), 3 + rng.IntN(3)}
			saves = known
			what, err = "SetState "+id, st.SetState(id, state, "<err> & more", received, int64(rng.IntN(1000)))
			if err == nil {
				got, _ := st.Get(id)
				if got.State != state || got.Results != len(received) || (state == StateDone) != (got.Received == nil) {
					t.Fatalf("op %d: SetState(%s, %s) left %+v", op, id, state, got)
				}
				model.Campaigns[id] = &got
			}
		default:
			saves = known
			what, err = "Delete "+id, st.Delete(id)
			if err == nil {
				delete(model.Campaigns, id)
			}
		}
		switch {
		case fail && saves:
			fails++
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("op %d: %s with the manifest write failing returned %v", op, what, err)
			}
		case !saves && what[0] == 'S':
			if err == nil {
				t.Fatalf("op %d: %s of an unknown campaign succeeded", op, what)
			}
		case err != nil:
			t.Fatalf("op %d: %s: %v", op, what, err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if want := encodedManifest(t, &st.m); !bytes.Equal(raw, want) {
			t.Fatalf("op %d (%s): manifest.json differs from the encoded manifest:\n got %s\nwant %s", op, what, raw, want)
		}
		if want := encodedManifest(t, &model); !bytes.Equal(raw, want) {
			t.Fatalf("op %d (%s): manifest.json differs from the operations that succeeded:\n got %s\nwant %s", op, what, raw, want)
		}
	}
	if fails < 20 {
		t.Fatalf("only %d saves failed; the sequence does not exercise rollback", fails)
	}
	fault.Disable()
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := campaignsJSON(t, again), campaignsJSON(t, st); got != want {
		t.Fatalf("reopen read different records:\n got %s\nwant %s", got, want)
	}
	meta := testMeta(1000)
	if err := again.Put(meta); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodedManifest(t, &again.m); !bytes.Equal(raw, want) {
		t.Fatalf("first save after a reopen differs from the encoded manifest:\n got %s\nwant %s", raw, want)
	}
}

// TestServeManifestSaveAllocs checks a save encodes only the campaign it
// changes: a one-record SetState allocates no more than twice as much
// with 1000 campaigns in the manifest as with 10.
func TestServeManifestSaveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	setState := func(n int) int64 {
		dir := t.TempDir()
		m := manifest{Campaigns: map[string]*CampaignMeta{}}
		for i := 0; i < n; i++ {
			meta := testMeta(i)
			m.Campaigns[meta.ID] = &meta
		}
		if err := os.WriteFile(filepath.Join(dir, "manifest.json"), encodedManifest(t, &m), 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		id := testMeta(n / 2).ID
		return allocBytes(func() {
			if err := st.SetState(id, StateFailed, "boom", []int{0, 2}, 64); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := setState(10), setState(1000)
	t.Logf("one-record SetState: %d B with 10 campaigns, %d B with 1000", small, large)
	if large > 2*small {
		t.Fatalf("a one-record save allocated %d bytes with 1000 campaigns, over twice the %d with 10", large, small)
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
