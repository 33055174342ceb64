package cache

import (
	"runtime"
	"testing"
	"unsafe"
)

// Per-set bytes: memoTag (8), memoWay (4), memoPos (4), freeCnt (4) and
// the LRU's per-set top rank (2).
const perSetBytes = 8 + 4 + 4 + 4 + 2

// TestRecordSizes pins Block at its flags byte plus owner, and a fan-out
// digest event at 16 bytes.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(Block{}); n != 2 {
		t.Errorf("Block is %d bytes, want 2", n)
	}
	if n := unsafe.Sizeof(FrontEvent{}); n != 16 {
		t.Errorf("FrontEvent is %d bytes, want 16", n)
	}
}

// TestLLCBytesPerBlock builds the §III-A LLC (4 MiB, 16-way, LRU) from
// empty recycle pools and pins what it allocates: at most 12 bytes per
// block (8-byte tag, 2-byte Block, 2-byte LRU rank) beyond the per-set
// arrays and at most 4 KiB of stats and headers. The process-wide
// allocation counter also counts whatever other goroutines allocate
// during a build, and that noise only adds bytes, so the test takes the
// smallest of five builds.
func TestLLCBytesPerBlock(t *testing.T) {
	cfg := DefaultConfig(1).LLC
	// A first build creates the recycle pools themselves; sync.Pool then
	// drops idle arrays after two collections, so each measured build
	// allocates every array afresh and nothing else.
	first, err := cfg.build("LLC", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	const fixed = 4 << 10
	var total, blocks, sets uint64
	for round := 0; round < 5; round++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := cfg.build("LLC", 1, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; round == 0 || n < total {
			total = n
		}
		blocks, sets = c.CapacityBlocks(), uint64(c.Sets())
		c.Release()
	}
	perBlock := float64(total-sets*perSetBytes-fixed) / float64(blocks)
	t.Logf("default LLC: %d B allocated (least of 5 builds), %.2f B/block beyond %d B/set", total, perBlock, perSetBytes)
	if perBlock > 12 {
		t.Fatalf("default LLC holds %.2f B/block beyond its per-set arrays, want at most 12", perBlock)
	}
}
