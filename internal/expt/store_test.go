package expt

import (
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// TestMemoCountersFoldIntoStoreExpvar: the expt memo's hit/miss traffic
// is visible in the metrics tree's shared store group.
func TestMemoCountersFoldIntoStoreExpvar(t *testing.T) {
	r := NewRunner(micro())
	cfg := r.Pinte("453.povray", 0.1)
	cfg.WarmupInstrs, cfg.ROIInstrs, cfg.SampleEvery = 20_000, 50_000, 10_000

	before := telemetry.StoreSnapshot()
	if _, err := r.Get(cfg); err != nil {
		t.Fatal(err)
	}
	mid := telemetry.StoreSnapshot()
	if d := mid["memo_misses"] - before["memo_misses"]; d != 1 {
		t.Fatalf("memo_misses delta = %d, want 1", d)
	}
	if _, err := r.Get(cfg); err != nil {
		t.Fatal(err)
	}
	after := telemetry.StoreSnapshot()
	if d := after["memo_hits"] - mid["memo_hits"]; d != 1 {
		t.Fatalf("memo_hits delta = %d, want 1", d)
	}
	if d := after["memo_misses"] - mid["memo_misses"]; d != 0 {
		t.Fatalf("memo hit also counted a miss: delta %d", d)
	}
}

// TestRunnerStoreSurvivesRestart: with a Store configured, a fresh
// Runner (cold memo, as after a process restart) satisfies a repeated
// experiment from the durable layer without executing.
func TestRunnerStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Fingerprint: "sim-test"})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(micro())
	r.Store = st
	cfg := r.Pinte("453.povray", 0.1)
	cfg.WarmupInstrs, cfg.ROIInstrs, cfg.SampleEvery = 20_000, 50_000, 10_000
	first, err := r.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := store.Open(store.Options{Dir: dir, Fingerprint: "sim-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	r2 := NewRunner(micro())
	r2.Store = st2
	before := telemetry.StoreSnapshot()
	second, err := r2.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := telemetry.StoreSnapshot()
	if d := after["hits"] - before["hits"]; d != 1 {
		t.Fatalf("store hits delta = %d, want 1 (cold memo, warm store)", d)
	}
	if first.IPC != second.IPC || first.Instrs != second.Instrs {
		t.Fatalf("restarted runner diverged: %v vs %v", first.IPC, second.IPC)
	}
}
