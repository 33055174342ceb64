package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
	rstore "repro/internal/store"
)

// TestMain doubles as the pinted binary for the crash-recovery property
// test: the parent re-execs this test binary with PINTED_CHILD=1 and
// real pinted flags, so the child that gets SIGKILLed is the real
// server — HTTP stack, store, pool and all — not a simulation of it.
func TestMain(m *testing.M) {
	if os.Getenv("PINTED_CHILD") == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// lockedBuf collects a child's stderr across goroutines.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// child is one pinted process under test.
type child struct {
	cmd    *exec.Cmd
	addr   string
	stderr *lockedBuf
}

// startChild launches a pinted child on a free port over dir and waits
// for its address line.
func startChild(t *testing.T, dir string) *child {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-data", dir, "-workers", "2")
	cmd.Env = append(os.Environ(), "PINTED_CHILD=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errBuf := &lockedBuf{}
	cmd.Stderr = errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, stderr: errBuf}

	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := regexp.MustCompile(`listening on (\S+)`).FindStringSubmatch(sc.Text()); m != nil {
				addrc <- m[1]
				break
			}
		}
		// Drain the rest so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout) //nolint:errcheck
	}()
	select {
	case c.addr = <-addrc:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck
		t.Fatalf("child did not report a listening address; stderr:\n%s", errBuf.String())
	}
	return c
}

func (c *child) kill(t *testing.T) {
	t.Helper()
	c.cmd.Process.Signal(syscall.SIGKILL) //nolint:errcheck
	c.cmd.Wait()                          //nolint:errcheck
}

func (c *child) url(path string) string { return "http://" + c.addr + path }

// postCampaign submits spec to a child and returns the campaign ID.
func postCampaign(t *testing.T, c *child, spec SweepSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(c.url("/v1/campaigns"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit to child: status %d: %s", resp.StatusCode, b)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// waitChildState polls a child until the campaign reaches want.
func waitChildState(t *testing.T, c *child, id string, want CampaignState) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(c.url("/v1/campaigns/" + id))
		if err == nil {
			var st struct {
				State CampaignState `json:"state"`
			}
			jerr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if jerr == nil && st.State == want {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached %q; child stderr:\n%s", id, want, c.stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

var resumeLine = regexp.MustCompile(`resume: (\d+) of (\d+) runs already stored`)

// TestChaosServerCrashRecoveryProperty is the kill -9 property test:
// for a handful of fuzzed kill instants, a pinted child is SIGKILLed
// mid-campaign, restarted over the same data directory, and must (a)
// preserve every stored result byte-for-byte, (b) resume exactly the
// runs that were not stored — the resume log's count must match what
// the parent counted in the result store before restart — and (c)
// finish with results byte-identical to an uninterrupted reference
// campaign.
func TestChaosServerCrashRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills real server processes")
	}
	// Big enough that the campaign is still mid-flight for most of the
	// fuzzed kill window, and spread over several workloads so the
	// store grows in stages (three isolation baselines, then three
	// fan-out groups) — kills land on partially-stored campaigns, not
	// just empty or complete ones. Under the race detector the children
	// simulate roughly an order of magnitude slower, so the per-run work
	// shrinks to keep the same kill windows meaningful.
	roi := uint64(1_000_000)
	if raceEnabled {
		roi = 150_000
	}
	spec := SweepSpec{
		Workloads:    []string{"453.povray", "450.soplex", "433.milc"},
		Points:       []float64{0.05, 0.2, 0.5, 0.8},
		WarmupInstrs: 50_000,
		ROIInstrs:    roi,
		Seed:         1,
	}
	total := spec.Runs()

	// Uninterrupted reference, computed in-process.
	refOut, err := runner.New(runner.Options{Workers: 2}).RunAll(context.Background(), spec.Configs())
	if err != nil || len(refOut.Failures) != 0 {
		t.Fatalf("reference campaign: err=%v failures=%v", err, refOut.Failures)
	}
	ref := make(map[string]string, total)
	for i, cfg := range spec.Configs() {
		key, kerr := runner.ConfigKey(cfg)
		if kerr != nil {
			t.Fatal(kerr)
		}
		ref[key] = fingerprint(t, refOut.Results[i])
	}

	// The race build's children start and simulate slower; stretch the
	// kill window by the same rough factor so the fuzzed instants still
	// straddle the campaign's store growth.
	delayScale := time.Duration(1)
	if raceEnabled {
		delayScale = 4
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 4; round++ {
		delay := delayScale * (15*time.Millisecond + time.Duration(rng.Int63n(int64(500*time.Millisecond))))
		t.Run(fmt.Sprintf("kill_after_%s", delay.Round(time.Millisecond)), func(t *testing.T) {
			dir := t.TempDir()
			c1 := startChild(t, dir)
			id := postCampaign(t, c1, spec)
			time.Sleep(delay)
			c1.kill(t)

			// What survived the kill? Every stored result must already be
			// byte-identical to the reference. (Opening the store trims a
			// torn record, as the restarted child's open would.)
			results, rerr := rstore.Open(rstore.Options{Dir: filepath.Join(dir, "results")})
			if rerr != nil {
				t.Fatalf("result store after SIGKILL: %v", rerr)
			}
			for _, key := range results.Keys() {
				want, known := ref[key]
				if !known {
					t.Fatalf("result store holds unknown key %s", key)
				}
				res, ok := results.Peek(key)
				if !ok || fingerprint(t, res) != want {
					t.Errorf("stored result %s unreadable or diverged from the reference", key)
				}
			}
			stored := len(results.Keys())
			results.Close()

			// Was the campaign still mid-flight when the kill landed? A
			// campaign that already persisted a terminal state restarts
			// without a resume pass, so the re-run accounting below only
			// applies to interrupted ones.
			manifest, merr := OpenStore(dir)
			if merr != nil {
				t.Fatalf("manifest after SIGKILL: %v", merr)
			}
			meta, ok := manifest.Get(id)
			if !ok {
				t.Fatal("admitted campaign missing from the manifest after SIGKILL")
			}
			interrupted := meta.State == StateActive
			t.Logf("killed after %s: %d/%d runs stored, state %q", delay, stored, total, meta.State)

			// Restart over the same store; the campaign must finish.
			c2 := startChild(t, dir)
			defer c2.kill(t)
			waitChildState(t, c2, id, StateDone)

			// Exact re-run accounting for interrupted campaigns: the
			// resume pass must find exactly the stored runs — no
			// double-execution, no dropped work.
			if m := resumeLine.FindStringSubmatch(c2.stderr.String()); m != nil {
				got, _ := strconv.Atoi(m[1])
				if got != stored || m[2] != strconv.Itoa(total) {
					t.Errorf("resume found %s of %s runs stored, the store held %d of %d", m[1], m[2], stored, total)
				}
			} else if interrupted {
				t.Errorf("no resume line for an interrupted campaign with %d stored runs; stderr:\n%s", stored, c2.stderr.String())
			}

			// Final results: all present, byte-identical to the reference.
			resp, err := http.Get(c2.url("/v1/campaigns/" + id + "/results"))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 64<<10), 64<<20)
			got := make(map[string]string)
			sawDone := false
			for sc.Scan() {
				var probe map[string]json.RawMessage
				if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
					t.Fatal(err)
				}
				if _, ok := probe["done"]; ok {
					sawDone = true
					break
				}
				var ev struct {
					Key    string      `json:"key"`
					Result *sim.Result `json:"result"`
				}
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatal(err)
				}
				got[ev.Key] = fingerprint(t, ev.Result)
			}
			if !sawDone || len(got) != total {
				t.Fatalf("final stream: %d results (done=%v), want %d", len(got), sawDone, total)
			}
			for key, want := range ref {
				if got[key] != want {
					t.Errorf("post-recovery result %s diverged from the uninterrupted reference", key)
				}
			}
		})
	}
}
