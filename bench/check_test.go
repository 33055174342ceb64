package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckAgainstCommittedDigest runs a tiny sweep-full against a
// reference directory holding first its true digest, then a corrupted
// one: the first run passes, the second exits non-zero.
func TestCheckAgainstCommittedDigest(t *testing.T) {
	o := tinyOptions(t, wSweepFull, "0")
	w, err := newWorkload(o.workload, o.sizes, o.seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.rep(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	write := func(digest string) {
		body := fmt.Sprintf(`{%q: {"%d": %q}}`, o.workload, o.seed, digest)
		if err := os.WriteFile(filepath.Join(o.testdata, "digests.json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(r.digest)
	var stdout, stderr bytes.Buffer
	if code := measure(o, &stdout, &stderr); code != 0 {
		t.Fatalf("true digest: exit %d\n%s", code, stderr.String())
	}

	corrupt := []byte(r.digest)
	corrupt[0] ^= 1
	write(string(corrupt))
	stdout.Reset()
	stderr.Reset()
	if code := measure(o, &stdout, &stderr); code == 0 {
		t.Fatal("a corrupted digest passed the check")
	}
	if !strings.Contains(stderr.String(), "does not match the committed") {
		t.Errorf("no digest mismatch reported:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), `"correct":false`) {
		t.Errorf("summary does not report the failed check:\n%s", stdout.String())
	}
}
