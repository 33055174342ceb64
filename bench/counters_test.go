package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestResidentBytesParsesStatm reads the resident page count, statm's
// second field, and the sampler's peak of the live process.
func TestResidentBytesParsesStatm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "statm")
	if err := os.WriteFile(path, []byte("123456 7890 321 4 0 5678 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got, want := residentBytes(f, make([]byte, 128)), int64(7890*os.Getpagesize()); got != want {
		t.Errorf("residentBytes = %d, want %d", got, want)
	}

	s := startRSS()
	ballast := make([]byte, 32<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	if peak := s.end(); peak < int64(len(ballast)) {
		t.Errorf("sampled peak %d below a touched %d-byte buffer", peak, len(ballast))
	}
}
