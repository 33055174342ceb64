package recycle

import (
	"sync"
	"testing"
)

func TestGetIsZeroedAndSized(t *testing.T) {
	for round := 0; round < 3; round++ {
		s := Get[uint64](1000)
		if len(s) != 1000 {
			t.Fatalf("len %d, want 1000", len(s))
		}
		for i, v := range s {
			if v != 0 {
				t.Fatalf("round %d: element %d = %d, want a zeroed slice", round, i, v)
			}
		}
		for i := range s {
			s[i] = ^uint64(0)
		}
		Put(s)
	}
	if Get[int32](0) != nil {
		t.Fatal("Get(0) returned a non-nil slice")
	}
	Put[int32](nil) // ignored
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 16 << (i % 4)
				s := Get[uint8](n)
				for j, v := range s {
					if v != 0 {
						t.Errorf("goroutine %d: recycled slice not zeroed at %d", g, j)
						return
					}
					s[j] = uint8(g + 1)
				}
				Put(s)
			}
		}(g)
	}
	wg.Wait()
}
