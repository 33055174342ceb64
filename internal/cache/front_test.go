package cache

import (
	"math/rand/v2"
	"testing"
)

// deadMemory fails the test on any access: a capture-mode hierarchy
// must never reach below the L2.
type deadMemory struct{ t *testing.T }

func (m *deadMemory) Access(now, addr uint64, isWrite bool) uint64 {
	m.t.Errorf("capture-mode hierarchy touched memory (addr %#x write=%v)", addr, isWrite)
	return 0
}

// frontAccess is one step of the synthetic workload shared by the
// capture tests: a mix of fetches, loads and stores over a footprint
// larger than the L2 so descends and dirty L2 victims both occur.
type frontAccess struct {
	pc   uint64
	addr uint64
	kind AccessKind
}

func frontWorkload(n int) []frontAccess {
	rng := rand.New(rand.NewPCG(9, 9))
	accs := make([]frontAccess, 0, n)
	for i := 0; i < n; i++ {
		a := frontAccess{pc: 0x400000 + uint64(rng.IntN(256))*BlockBytes}
		switch rng.IntN(4) {
		case 0:
			a.kind = Ifetch
			a.addr = a.pc
		case 1:
			a.kind = StoreAccess
			a.addr = uint64(rng.IntN(1024)) * BlockBytes
		default:
			a.kind = Load
			a.addr = uint64(rng.IntN(1024)) * BlockBytes
		}
		accs = append(accs, a)
	}
	return accs
}

// TestFrontCaptureMatchesInline drives the same access sequence through
// an in-line hierarchy and a capture-mode one, then replays the captured
// below-L2 stream into a third. The private levels must evolve
// identically in both passes, the capture pass must never touch LLC or
// memory, and the replayed LLC + memory must end up exactly where the
// in-line run's did — that three-way agreement is what makes the
// fan-out digest executor sound.
func TestFrontCaptureMatchesInline(t *testing.T) {
	cfg := tinyHierCfg(1, NonInclusive)
	accs := frontWorkload(30_000)

	mem := &flatMemory{latency: 160}
	inline := MustNewHierarchy(cfg, mem)
	for i, a := range accs {
		inline.Access(0, a.pc, a.addr, a.kind, uint64(i))
	}

	front := MustNewHierarchy(cfg, &deadMemory{t: t})
	var cap FrontCapture
	var instrs uint64
	if err := front.SetFrontCapture(&cap, &instrs); err != nil {
		t.Fatal(err)
	}
	for i, a := range accs {
		instrs = uint64(i)
		front.Access(0, a.pc, a.addr, a.kind, uint64(i))
	}

	// Private levels saw the same hits and misses in both passes.
	for _, lv := range []struct {
		name          string
		inline, front *Cache
	}{
		{"L1I", inline.L1I(0), front.L1I(0)},
		{"L1D", inline.L1D(0), front.L1D(0)},
		{"L2", inline.L2(0), front.L2(0)},
	} {
		if lv.inline.Stats.Hits[0] != lv.front.Stats.Hits[0] ||
			lv.inline.Stats.Misses[0] != lv.front.Stats.Misses[0] {
			t.Errorf("%s diverged: inline %d/%d hits/misses, capture %d/%d",
				lv.name, lv.inline.Stats.Hits[0], lv.inline.Stats.Misses[0],
				lv.front.Stats.Hits[0], lv.front.Stats.Misses[0])
		}
	}
	if front.Stats.LLCDemandFills != 0 || front.Stats.LLCWritebackFills != 0 ||
		front.LLC().Stats.Hits[0] != 0 || front.LLC().Stats.Misses[0] != 0 {
		t.Errorf("capture pass touched the LLC: %+v", front.Stats)
	}

	// The event stream itself: stamps are the retiring-instruction
	// indices (non-decreasing, in range), descends mark exactly the
	// in-line run's L2 misses, and the writeback queue is fully owned.
	var descends, wbSum uint64
	last := uint32(0)
	for _, ev := range cap.Events {
		if ev.Instr < last || ev.Instr >= uint32(len(accs)) {
			t.Fatalf("event stamp %d out of order (prev %d, total %d)", ev.Instr, last, len(accs))
		}
		last = ev.Instr
		if ev.Descend {
			descends++
		}
		wbSum += uint64(ev.WBs)
	}
	if want := inline.L2(0).Stats.Misses[0]; descends != want {
		t.Errorf("captured %d descends, in-line L2 saw %d misses", descends, want)
	}
	if wbSum != uint64(len(cap.WBAddrs)) {
		t.Errorf("event WB counts sum to %d but %d addresses were queued", wbSum, len(cap.WBAddrs))
	}

	// Replaying the stream reproduces the in-line LLC and memory.
	rmem := &flatMemory{latency: 160}
	replay := MustNewHierarchy(cfg, rmem)
	wb := 0
	for _, ev := range cap.Events {
		if ev.Descend {
			replay.DescendLLC(0, ev.Addr, uint64(ev.Instr))
		}
		for k := uint8(0); k < ev.WBs; k++ {
			replay.WritebackToLLC(0, cap.WBAddrs[wb])
			wb++
		}
	}
	if wb != len(cap.WBAddrs) {
		t.Fatalf("replay consumed %d of %d writebacks", wb, len(cap.WBAddrs))
	}
	if a, b := replay.LLC().Stats, inline.LLC().Stats; a.Hits[0] != b.Hits[0] || a.Misses[0] != b.Misses[0] {
		t.Errorf("replayed LLC diverged: %d/%d hits/misses, in-line %d/%d",
			a.Hits[0], a.Misses[0], b.Hits[0], b.Misses[0])
	}
	if replay.Stats.LLCDemandFills != inline.Stats.LLCDemandFills ||
		replay.Stats.LLCWritebackFills != inline.Stats.LLCWritebackFills {
		t.Errorf("replayed fills diverged: demand %d/%d, writeback %d/%d",
			replay.Stats.LLCDemandFills, inline.Stats.LLCDemandFills,
			replay.Stats.LLCWritebackFills, inline.Stats.LLCWritebackFills)
	}
	if rmem.reads != mem.reads || rmem.writes != mem.writes {
		t.Errorf("replayed memory traffic diverged: %d/%d reads, %d/%d writes",
			rmem.reads, mem.reads, rmem.writes, mem.writes)
	}
}

// TestFrontCaptureRejectsUnsupported checks the soundness gate:
// inclusion modes with below-L2 feedback into the private levels and
// prefetcher-equipped hierarchies cannot be captured.
func TestFrontCaptureRejectsUnsupported(t *testing.T) {
	var cap FrontCapture
	var instrs uint64
	for _, tc := range []struct {
		name string
		cfg  HierarchyConfig
	}{
		{"inclusive", tinyHierCfg(1, Inclusive)},
		{"exclusive", tinyHierCfg(1, Exclusive)},
	} {
		h := MustNewHierarchy(tc.cfg, &flatMemory{latency: 100})
		if err := h.SetFrontCapture(&cap, &instrs); err == nil {
			t.Errorf("%s hierarchy accepted front capture", tc.name)
		}
	}
	cfg := tinyHierCfg(1, NonInclusive)
	cfg.Prefetch = "0NN"
	h := MustNewHierarchy(cfg, &flatMemory{latency: 100})
	if err := h.SetFrontCapture(&cap, &instrs); err == nil {
		t.Error("prefetcher-equipped hierarchy accepted front capture")
	}
}

// TestFrontCaptureReleasesLLC: capture mode hands the LLC's arrays back
// at SetFrontCapture, so the capture hierarchy's LLC is unusable — a
// descend into it panics — while its Stats stay readable.
func TestFrontCaptureReleasesLLC(t *testing.T) {
	h := MustNewHierarchy(tinyHierCfg(1, NonInclusive), &deadMemory{t: t})
	var cap FrontCapture
	var instrs uint64
	if err := h.SetFrontCapture(&cap, &instrs); err != nil {
		t.Fatal(err)
	}
	h.ResetStats() // the front resets its stats after warm-up
	if h.LLC().Stats.Hits[0] != 0 {
		t.Fatal("released LLC's stats unreadable")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DescendLLC on a capture hierarchy did not panic")
		}
	}()
	h.DescendLLC(0, 0x1000, 0)
}
