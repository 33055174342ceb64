package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/stats"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
)

// serve is the campaign-service workload: the pinted server in process,
// behind an HTTP test server on the loopback interface, with journals
// in a scratch data directory and a shared result store. One rep is one
// pass over a fresh directory: set-up (open, resume, pre-seed
// campaigns; not timed), then — timed — a closed loop of two tenants,
// five restarts, and a warm resubmission of every fresh spec.
type serve struct {
	z       sizes
	scratch string
	fresh   []server.SweepSpec
	preseed []server.SweepSpec
}

func newServe(z sizes, seed uint64, scratch string) *serve {
	return &serve{
		z: z, scratch: scratch,
		fresh:   serveSpecs(z, seed, 1, z.fresh),
		preseed: serveSpecs(z, seed, 2, z.preseed),
	}
}

// service is one open instance of the campaign service.
type service struct {
	st     *store.Store
	srv    *server.Server
	hs     *httptest.Server
	client *http.Client
}

// openTimes are the parts of opening a service on a data directory.
type openTimes struct{ storeOpen, serverNew, resume time.Duration }

func (t openTimes) total() time.Duration { return t.storeOpen + t.serverNew + t.resume }

// openService opens the result store and the server on dir, resumes
// whatever the directory's manifest holds, and starts serving HTTP.
func openService(dir string, tr *tracer, parent int) (*service, openTimes, error) {
	var t openTimes
	sp := tr.begin("store.Open", dir, parent)
	t0 := time.Now()
	st, err := store.Open(store.Options{Dir: filepath.Join(dir, "results")})
	t.storeOpen = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, t, err
	}
	sp = tr.begin("server.New", dir, parent)
	t0 = time.Now()
	srv, err := server.New(server.Config{DataDir: filepath.Join(dir, "data"), Workers: procs, ResultStore: st})
	t.serverNew = time.Since(t0)
	tr.end(sp)
	if err != nil {
		st.Close()
		return nil, t, err
	}
	sp = tr.begin("server.Resume", dir, parent)
	t0 = time.Now()
	srv.Resume()
	t.resume = time.Since(t0)
	tr.end(sp)
	hs := httptest.NewServer(srv.Handler())
	return &service{st: st, srv: srv, hs: hs, client: hs.Client()}, t, nil
}

// close drains the server, stops serving and closes the store.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Drain(ctx)
	s.hs.Close()
	s.srv.Close()
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

// submission is one campaign as a client saw it.
type submission struct {
	status int
	state  string
	// admit is the POST round trip; first and last are when the first
	// and the final result-stream lines arrived, all from the POST.
	admit, first, last time.Duration
	results            []*sim.Result // by result index
	// staleFinal marks a stream whose final line still said "active":
	// the campaign had left the live table but its terminal state was
	// not yet in the manifest. The results are complete either way.
	staleFinal bool
}

// submit posts spec as tenant and reads the campaign's result stream to
// its final line.
func (s *service) submit(ctx context.Context, tenant string, spec server.SweepSpec, tr *tracer, parent int) (*submission, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	sub := &submission{}
	sp := tr.begin("client.campaign", tenant, parent)
	defer tr.end(sp)
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.hs.URL+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Tenant", tenant)
	post := tr.begin("server.POST", tenant, sp)
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	var meta struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&meta)
	resp.Body.Close()
	sub.admit = time.Since(t0)
	tr.end(post)
	sub.status = resp.StatusCode
	if resp.StatusCode != http.StatusCreated {
		return sub, nil
	}
	if derr != nil {
		return nil, fmt.Errorf("decoding admission: %w", derr)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.hs.URL+"/v1/campaigns/"+meta.ID+"/results", nil)
	if err != nil {
		return nil, err
	}
	resp, err = s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	runs := spec.Runs()
	sub.results = make([]*sim.Result, runs)
	for sc.Scan() {
		if sub.first == 0 {
			sub.first = time.Since(t0)
			tr.event("server.first_line", meta.ID, sp)
		}
		var ev struct {
			Index  int         `json:"index"`
			Done   bool        `json:"done"`
			State  string      `json:"state"`
			Result *sim.Result `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("campaign %s: decoding stream line: %w", meta.ID, err)
		}
		if ev.Done {
			sub.state = ev.State
			sub.last = time.Since(t0)
			tr.event("server.last_line", meta.ID, sp)
			if sub.state == "active" {
				sub.staleFinal = true
				sub.state, err = s.awaitState(ctx, meta.ID)
			}
			return sub, err
		}
		if ev.Index < 0 || ev.Index >= runs || ev.Result == nil {
			return nil, fmt.Errorf("campaign %s: stream line with index %d of %d runs", meta.ID, ev.Index, runs)
		}
		sub.results[ev.Index] = ev.Result
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("campaign %s: reading stream: %w", meta.ID, err)
	}
	return nil, fmt.Errorf("campaign %s: stream ended without a final line", meta.ID)
}

// awaitState polls a campaign's manifest record until its state is
// terminal.
func (s *service) awaitState(ctx context.Context, id string) (string, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.hs.URL+"/v1/campaigns/"+id, nil)
		if err != nil {
			return "", err
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return "", err
		}
		var meta struct {
			State string `json:"state"`
		}
		err = json.NewDecoder(resp.Body).Decode(&meta)
		resp.Body.Close()
		if err != nil {
			return "", fmt.Errorf("campaign %s: decoding status: %w", id, err)
		}
		if meta.State != "active" || time.Now().After(deadline) {
			return meta.State, nil
		}
		time.Sleep(time.Millisecond)
	}
}

// ok reports whether the campaign was admitted and finished cleanly.
func (sub *submission) ok() bool { return sub.status == http.StatusCreated && sub.state == "done" }

// openSeeded opens a service on a fresh dir and runs the pre-seed
// campaigns through it.
func (s *serve) openSeeded(ctx context.Context, dir string, tr *tracer) (*service, error) {
	svc, _, err := openService(dir, tr, -1)
	if err != nil {
		return nil, err
	}
	for _, spec := range s.preseed {
		sub, err := svc.submit(ctx, "seed", spec, tr, -1)
		if err == nil && !sub.ok() {
			err = fmt.Errorf("pre-seed campaign: status %d, state %q", sub.status, sub.state)
		}
		if err != nil {
			svc.close()
			return nil, err
		}
	}
	return svc, nil
}

func (s *serve) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(s.scratch, "serve-setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	svc, err := s.openSeeded(ctx, dir, nil)
	if err != nil {
		return err
	}
	return svc.close()
}

func (s *serve) rep(ctx context.Context, tr *tracer) (*repOut, error) {
	dir, err := os.MkdirTemp(s.scratch, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc, err := s.openSeeded(ctx, dir, tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		if svc != nil {
			svc.close()
		}
	}()

	r := &repOut{pooled: map[string][]float64{}}
	var problems []string
	stale := 0
	record := func(sub *submission, class string) {
		r.attempted++
		if !sub.ok() {
			r.failed++
			problems = append(problems, fmt.Sprintf("%s campaign: status %d, state %q", class, sub.status, sub.state))
		}
		r.pooled["server.admit_ms"] = append(r.pooled["server.admit_ms"], ms(sub.admit))
		r.pooled["server.first_line_ms"] = append(r.pooled["server.first_line_ms"], ms(sub.first))
		r.pooled["server.stream_tail_ms"] = append(r.pooled["server.stream_tail_ms"], ms(sub.last-sub.first))
		if sub.staleFinal {
			stale++
		}
	}

	before := takeSnapshot()
	loadSpan := tr.begin("bench.load", "", -1)

	// The closed loop: tenant "fresh" submits never-seen specs one after
	// another; tenant "repeat" keeps resubmitting whichever spec fresh
	// finished last, so each of its runs is a store hit that still
	// journals and streams.
	fresh := make([]*submission, len(s.fresh))
	type repeated struct {
		k   int
		sub *submission
	}
	var repeats []repeated
	var latest atomic.Int64
	latest.Store(-1)
	firstDone := make(chan struct{})
	var once sync.Once
	var freshErr, repeatErr error
	var freshEnd time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer once.Do(func() { close(firstDone) })
		for k, spec := range s.fresh {
			sub, err := svc.submit(ctx, "fresh", spec, tr, loadSpan)
			if err != nil {
				freshErr = err
				return
			}
			fresh[k] = sub
			latest.Store(int64(k))
			once.Do(func() { close(firstDone) })
		}
		freshEnd = time.Since(before.at)
	}()
	go func() {
		defer wg.Done()
		<-firstDone
		for j := 0; j < s.z.repeat; j++ {
			k := latest.Load()
			if k < 0 {
				return
			}
			sub, err := svc.submit(ctx, "repeat", s.fresh[k], tr, loadSpan)
			if err != nil {
				repeatErr = err
				return
			}
			repeats = append(repeats, repeated{int(k), sub})
		}
	}()
	wg.Wait()
	loadEnd := time.Since(before.at)
	tr.end(loadSpan)
	if freshErr != nil || repeatErr != nil {
		return nil, fmt.Errorf("serve load: %v %v", freshErr, repeatErr)
	}
	for k, sub := range fresh {
		record(sub, "fresh")
		r.latencies = append(r.latencies, sub.last)
		r.nominal += specInstrs(s.fresh[k])
	}
	for _, rp := range repeats {
		record(rp.sub, "repeat")
		r.pooled["server.repeat_latency_ms"] = append(r.pooled["server.repeat_latency_ms"], ms(rp.sub.last))
		r.nominal += specInstrs(s.fresh[rp.k])
		if !sameResults(rp.sub.results, fresh[rp.k].results) {
			problems = append(problems, fmt.Sprintf("repeat of spec %d streamed different results", rp.k))
		}
	}

	// Restarts: drain and close, then reopen the populated directory.
	var restarts, opens, news, resumes []float64
	pprof.Do(ctx, pprof.Labels("stage", "restart"), func(ctx context.Context) {
		for i := 0; i < s.z.restarts && err == nil; i++ {
			sp := tr.begin("bench.restart", "", -1)
			if err = svc.close(); err != nil {
				svc = nil
				break
			}
			var t openTimes
			svc, t, err = openService(dir, tr, sp)
			tr.end(sp)
			restarts = append(restarts, t.total().Seconds())
			opens = append(opens, t.storeOpen.Seconds())
			news = append(news, t.serverNew.Seconds())
			resumes = append(resumes, t.resume.Seconds())
		}
	})
	if err != nil {
		return nil, fmt.Errorf("serve restart: %w", err)
	}

	// Warm resubmission: every fresh spec again, after the restarts.
	warmBefore := takeSnapshot()
	pprof.Do(ctx, pprof.Labels("stage", "warm"), func(ctx context.Context) {
		sp := tr.begin("bench.warm", "", -1)
		defer tr.end(sp)
		for k, spec := range s.fresh {
			var sub *submission
			if sub, err = svc.submit(ctx, "warm", spec, tr, sp); err != nil {
				return
			}
			record(sub, "warm")
			r.nominal += specInstrs(spec)
			if !sameResults(sub.results, fresh[k].results) {
				problems = append(problems, fmt.Sprintf("post-restart resubmission of spec %d streamed different results", k))
			}
		}
	})
	after := takeSnapshot()
	if err != nil {
		return nil, fmt.Errorf("serve warm resubmission: %w", err)
	}
	warm := warmBefore.to(after)
	if warm.storeMisses != 0 {
		problems = append(problems, fmt.Sprintf("post-restart resubmission missed the store %d times", warm.storeMisses))
	}
	r.d = before.to(after)
	r.problems = problems

	for _, sub := range fresh {
		r.results = append(r.results, sub.results...)
	}
	if r.digest, err = digestResults(r.results); err != nil {
		return nil, err
	}

	l := simLayer(r.results, r.d.wall)
	r.layer = l
	l["server.stale_final_states"] = float64(stale)
	r.pooled["sim.run_s"] = resultWalls(r.results)
	fanLayer(l, r.d)
	phaseLayer(l, r.d)
	l["runner.tail_s"] = (loadEnd - freshEnd).Seconds()
	l["runner.ran"], l["runner.from_store"] = float64(r.d.storePuts), float64(r.d.storeHits)
	l["store.open_s"] = stats.Median(opens)
	l["server.new_s"] = stats.Median(news)
	l["server.resume_s"] = stats.Median(resumes)
	l["server.restart_s"] = stats.Median(restarts)
	l["store.warm_resubmit_s"] = warm.wall.Seconds()
	l["store.hit_ratio"] = ratio(float64(r.d.storeHits), float64(r.d.storeHits+r.d.storeMisses))
	l["store.bytes_mb"] = float64(storeBytes(svc.st)) / (1 << 20)
	l["server.data_dir_mb"] = float64(dirBytes(dir)) / (1 << 20)
	l["server.refused"] = float64(r.d.refused)
	l["server.degraded_admissions"] = float64(r.d.degradedAdmissions)
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// specInstrs is the nominal primary-core instructions a spec requests.
func specInstrs(spec server.SweepSpec) uint64 { return nominalInstrs(spec.Configs()) }

// sameResults reports whether two streamed result sets are
// byte-identical apart from wall times.
func sameResults(a, b []*sim.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if sameResult(a[i], b[i]) != nil {
			return false
		}
	}
	return true
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func (s *serve) verify(context.Context, []*repOut, *refs, uint64) []string { return nil }

func (s *serve) layers(ctx context.Context, reps []*repOut, tr *tracer, defs []metricDef) (map[string]float64, error) {
	lm := medianLayers(reps)
	runs := pooled(reps, "sim.run_s")
	lm["sim.run_s_p50"], lm["sim.run_s_p90"] = stats.Percentile(runs, 0.5), stats.Percentile(runs, 0.9)
	for _, m := range []string{"server.admit_ms", "server.first_line_ms", "server.repeat_latency_ms"} {
		xs := pooled(reps, m)
		lm[m+"_p50"], lm[m+"_p90"] = stats.Percentile(xs, 0.5), stats.Percentile(xs, 0.9)
	}
	lm["server.stream_tail_ms_p50"] = stats.Percentile(pooled(reps, "server.stream_tail_ms"), 0.5)
	// The service takes no stream provider and never samples here.
	zeroMissing(lm, defs, "trace.", "replay.", "fan.", "phase.")
	puts, gets, err := s.storeTimings(reps[len(reps)-1].results, tr)
	if err != nil {
		return nil, err
	}
	lm["store.put_ms_p50"], lm["store.put_ms_p90"] = stats.Percentile(puts, 0.5), stats.Percentile(puts, 0.9)
	lm["store.get_us_p50"], lm["store.get_us_p90"] = stats.Percentile(gets, 0.5), stats.Percentile(gets, 0.9)
	return lm, nil
}

// storeTimings times store.Put of a rep's results into a scratch store
// on the same filesystem, then store.Get of each after reopening it.
func (s *serve) storeTimings(rs []*sim.Result, tr *tracer) (putsMs, getsUs []float64, err error) {
	dir, err := os.MkdirTemp(s.scratch, "store-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	keys := make([]string, len(rs))
	for i, r := range rs {
		if keys[i], err = runner.ConfigKey(r.Config); err != nil {
			return nil, nil, err
		}
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	for i, r := range rs {
		sp := tr.begin("store.Put", keys[i], -1)
		t0 := time.Now()
		err = st.Put(keys[i], r)
		putsMs = append(putsMs, ms(time.Since(t0)))
		tr.end(sp)
		if err != nil {
			st.Close()
			return nil, nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, nil, err
	}
	if st, err = store.Open(store.Options{Dir: dir}); err != nil {
		return nil, nil, err
	}
	defer st.Close()
	for i, r := range rs {
		sp := tr.begin("store.Get", keys[i], -1)
		t0 := time.Now()
		got, ok := st.Get(keys[i])
		getsUs = append(getsUs, float64(time.Since(t0))/1e3)
		tr.end(sp)
		if !ok {
			return nil, nil, fmt.Errorf("scratch store lost result %d", i)
		}
		if err := sameResult(got, r); err != nil {
			return nil, nil, fmt.Errorf("scratch store result %d: %w", i, err)
		}
	}
	return putsMs, getsUs, nil
}
