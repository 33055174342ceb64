package telemetry

import (
	"encoding/json"
	"expvar"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// treeGroups reads the published tree back through expvar, as a
// /debug/vars scrape would.
func treeGroups(t *testing.T) map[string]json.RawMessage {
	t.Helper()
	v := expvar.Get("pinte")
	if v == nil {
		t.Fatal(`no "pinte" expvar`)
	}
	var groups map[string]json.RawMessage
	if err := json.Unmarshal([]byte(v.String()), &groups); err != nil {
		t.Fatalf("tree is not a JSON object: %v", err)
	}
	return groups
}

// TestTreeIsTheOnlyExpvar pins the tree's shape: one "pinte" key on
// the expvar page, holding exactly the seven groups.
func TestTreeIsTheOnlyExpvar(t *testing.T) {
	var keys []string
	expvar.Do(func(kv expvar.KeyValue) {
		if strings.HasPrefix(kv.Key, "pinte") {
			keys = append(keys, kv.Key)
		}
	})
	if len(keys) != 1 || keys[0] != "pinte" {
		t.Fatalf("pinte expvar keys = %v, want just [pinte]", keys)
	}
	groups := treeGroups(t)
	want := []string{"campaigns", "replay", "degraded", "fanout", "phase", "server", "store"}
	for _, g := range want {
		if _, ok := groups[g]; !ok {
			t.Errorf("tree lacks group %q", g)
		}
	}
	if len(groups) != len(want) {
		t.Errorf("tree has %d groups, want %d", len(groups), len(want))
	}
}

// TestSnapshotsKeepEveryKey pins the keys the snapshot functions have
// always served, including every key the benchmark's counter adapter
// reads, and checks the tree serves the same counters.
func TestSnapshotsKeepEveryKey(t *testing.T) {
	StoreView.Show(func() map[string]int64 {
		return map[string]int64{"bytes": 1, "segments": 2, "entries": 3}
	})
	want := map[string]struct {
		snap func() map[string]int64
		keys string
	}{
		"fanout": {FanoutSnapshot, "groups_formed points_fanned decode_passes decode_passes_saved fallback_points group_aborts"},
		"phase": {PhaseSnapshot, "profile_runs profile_failures plans_built phases_found sampled_runs sampled_fallbacks " +
			"intervals_simulated intervals_skipped instrs_simulated instrs_skipped"},
		"server": {ServerSnapshot, "submitted admitted refused_quota refused_draining refused_fault degraded_admissions " +
			"active_campaigns campaigns_done campaigns_failed campaigns_canceled resumed_campaigns pool_shed_tasks " +
			"stream_write_errors manifest_errors drains"},
		"store": {StoreSnapshot, "hits misses puts put_errors read_errors corrupt_records torn_tails stale_skipped " +
			"evictions evicted_bytes open_errors singleflight_shared singleflight_retries memo_hits memo_misses " +
			"bytes segments entries"},
	}
	groups := treeGroups(t)
	for name, g := range want {
		snap := g.snap()
		var served map[string]int64
		if err := json.Unmarshal(groups[name], &served); err != nil {
			t.Fatalf("%s group: %v", name, err)
		}
		for _, k := range strings.Fields(g.keys) {
			if _, ok := snap[k]; !ok {
				t.Errorf("%sSnapshot lacks %q", name, k)
			}
			if _, ok := served[k]; !ok {
				t.Errorf("tree's %s group lacks %q", name, k)
			}
		}
	}
	var degraded map[string]int64
	if err := json.Unmarshal(groups["degraded"], &degraded); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"replay_corrupt_chunks", "replay_fallbacks", "stalled_runs"} {
		if _, ok := degraded[k]; !ok {
			t.Errorf("degraded group lacks %q", k)
		}
	}
}

// TestGroupServesNewField: a counter added to a group struct is served
// under its snake_case name with no other edit; other fields are not.
func TestGroupServesNewField(t *testing.T) {
	var c struct {
		OldCounter atomic.Int64
		NewField   atomic.Int64
		Note       string
	}
	c.NewField.Add(7)
	snap := newGroup(&c).snapshot(0)
	if len(snap) != 2 || snap["new_field"] != 7 {
		t.Fatalf("group snapshot = %v, want old_counter and new_field=7", snap)
	}
	if _, ok := snap["old_counter"]; !ok {
		t.Fatalf("group snapshot = %v lacks old_counter", snap)
	}
}

// TestProgressPublishIdempotent: campaigns without an ID share one
// slot, and a later campaign replaces an earlier one there.
func TestProgressPublishIdempotent(t *testing.T) {
	RegisterCampaign("", NewProgress(1, time.Now()))
	RegisterCampaign("", NewProgress(2, time.Now()))
	if s, ok := CampaignProgress(""); !ok || s.Total != 2 {
		t.Fatalf("CLI slot = %+v, %v; want the later campaign (2 runs)", s, ok)
	}
	var camps map[string]Snapshot
	if err := json.Unmarshal(treeGroups(t)["campaigns"], &camps); err != nil {
		t.Fatal(err)
	}
	if s, ok := camps[""]; !ok || s.Total != 2 {
		t.Fatalf("campaigns group = %+v, want the CLI slot holding 2 runs", camps)
	}
}

// showBig shows a view that holds a 1 KiB object; freed closes once
// the object is collected.
func showBig(l *Latest[any], freed chan struct{}) {
	big := new([1 << 10]byte)
	runtime.SetFinalizer(big, func(*[1 << 10]byte) { close(freed) })
	l.Show(func() any { return big[0] })
}

// collected reports whether freed closes within a few collections.
func collected(freed chan struct{}) bool {
	for i := 0; i < 5; i++ {
		runtime.GC()
		select {
		case <-freed:
			return true
		case <-time.After(20 * time.Millisecond):
		}
	}
	return false
}

// TestLatestKeepsOnlyNewest: showing a new instance's view releases the
// previous one, so the tree never pins an old replay cache or store.
func TestLatestKeepsOnlyNewest(t *testing.T) {
	var l Latest[any]
	freed := make(chan struct{})
	showBig(&l, freed)
	if collected(freed) {
		t.Fatal("the newest instance was collected while shown")
	}
	l.Show(func() any { return 0 })
	if !collected(freed) {
		t.Fatal("the tree still holds the previous instance")
	}
}

// TestSnapshotAllocs bounds what the benchmark's counter adapter pays
// per read of the four snapshot functions, with a store's gauges shown.
func TestSnapshotAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	StoreView.Show(func() map[string]int64 {
		return map[string]int64{"bytes": 1, "segments": 2, "entries": 3}
	})
	allocs := testing.AllocsPerRun(100, func() {
		FanoutSnapshot()
		PhaseSnapshot()
		StoreSnapshot()
		ServerSnapshot()
	})
	if allocs > 14 {
		t.Fatalf("the four snapshots allocate %.0f times per read, want at most 14", allocs)
	}
}
