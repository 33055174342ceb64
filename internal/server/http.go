package server

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
	rstore "repro/internal/store"
	"repro/internal/telemetry"
)

// API sketch (all JSON):
//
//	POST   /v1/campaigns           submit a SweepSpec (X-Tenant header);
//	                               201 {id,...} | 400 | 429 + Retry-After | 503
//	GET    /v1/campaigns           list campaigns with live progress
//	GET    /v1/campaigns/{id}      one campaign's manifest record + progress
//	GET    /v1/campaigns/{id}/results
//	                               NDJSON result stream: recorded results
//	                               replay first, then live completions; a
//	                               reconnect replays from the start; 410
//	                               when a finished campaign's results are
//	                               no longer all stored
//	DELETE /v1/campaigns/{id}      cancel a live campaign (202) or delete a
//	                               finished one (204)
//	GET    /healthz                liveness + drain state
//	GET    /debug/vars             expvar: the "pinte" metrics tree
//	                               (server, campaigns, store, ... groups)

// campaignStatus is the wire form of one campaign's state.
type campaignStatus struct {
	CampaignMeta
	Progress *telemetry.Snapshot `json:"progress,omitempty"`
}

func (s *Server) status(meta CampaignMeta) campaignStatus {
	st := campaignStatus{CampaignMeta: meta}
	if snap, ok := telemetry.CampaignProgress(meta.ID); ok {
		st.Progress = &snap
	}
	return st
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the client hung up; nothing to do
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// tenant resolves the submitting tenant from the X-Tenant header;
// unauthenticated lab deployments collapse to one "default" tenant.
func tenant(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// Handler builds the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleDelete)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.Draining()})
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Admission is itself a fault site: a service-layer failure here
	// (injected in chaos runs) must refuse cleanly, not admit half-way.
	if err := fault.Err(fault.SiteServerAdmit); err != nil {
		telemetry.Server.Submitted.Add(1)
		telemetry.Server.RefusedFault.Add(1)
		writeError(w, http.StatusInternalServerError, "admission failed: %v", err)
		return
	}
	var spec SweepSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "decoding spec: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	meta, d, err := s.admit(tenant(r), spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "recording campaign: %v", err)
		return
	}
	if !d.admit {
		w.Header().Set("Retry-After", strconv.Itoa(int(d.retryAfter.Round(time.Second)/time.Second)))
		writeError(w, d.status, "%s", d.reason)
		return
	}
	writeJSON(w, http.StatusCreated, s.status(meta))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var out []campaignStatus
	for _, m := range s.store.Campaigns() {
		out = append(out, s.status(m))
	}
	writeJSON(w, http.StatusOK, map[string]any{"campaigns": out})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	meta, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, s.status(meta))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.Cancel(id) {
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": "canceling"})
		return
	}
	meta, ok := s.store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no such campaign")
		return
	}
	if meta.State == StateActive {
		// Active in the manifest but not live: only possible between
		// restart and Resume, or after a failed finalize write.
		writeError(w, http.StatusConflict, "campaign is active but not running; restart the server to resume it first")
		return
	}
	if err := s.store.Delete(id); err != nil {
		writeError(w, http.StatusInternalServerError, "deleting campaign: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleResults streams a campaign's results as NDJSON: every already
// recorded event (store hits included) in order, then live completions
// as they land, then one final status line. Because a live campaign's
// buffer holds every result it received, and a finished campaign's are
// read back from the result store, a dropped client that reconnects —
// even to a restarted server — sees the complete result set again:
// reconnect is resume.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, live := s.live(id)
	if !live {
		// Finished campaign: serve the stream from the result store.
		meta, ok := s.store.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no such campaign")
			return
		}
		s.streamFinished(w, meta)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// cond.Wait cannot watch a context, so a watcher goroutine turns
	// client disconnect into a broadcast the wait loop re-checks.
	ctx := r.Context()
	stopWatch := context.AfterFunc(ctx, c.cond.Broadcast)
	defer stopWatch()

	next := 0
	for {
		c.mu.Lock()
		for next >= len(c.events) && !c.finished && ctx.Err() == nil {
			c.cond.Wait()
		}
		events := c.events[next:]
		next = len(c.events)
		finished, final := c.finished, c.final
		c.mu.Unlock()

		if ctx.Err() != nil {
			return
		}
		for _, ev := range events {
			if !s.writeEvent(w, ev) {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if finished && next >= len(events) {
			line, _ := json.Marshal(map[string]any{"done": true, "state": final})
			w.Write(append(line, '\n')) //nolint:errcheck // final line; stream ends either way
			return
		}
	}
}

// streamFinished serves a finished campaign as the same NDJSON stream a
// live campaign serves, in canonical config order: the results it
// received, read back from the result store without counting a hit or
// a miss. Those are the indices in meta.Received, or every run of the
// spec when Received does not account for every result (a done
// campaign, which received them all, or a manifest written before the
// field existed), so runs another campaign stored later never join the
// stream. When any of them is no longer stored — evicted under a byte
// budget or written by another simulator build — it answers 410 Gone,
// naming how many are missing, instead of a silently partial stream; a
// resubmission gets whatever is still stored back as hits and
// recomputes the rest.
func (s *Server) streamFinished(w http.ResponseWriter, meta CampaignMeta) {
	cfgs := meta.Spec.Configs()
	idx := meta.Received
	if len(idx) != meta.Results {
		idx = make([]int, len(cfgs))
		for i := range idx {
			idx[i] = i
		}
	}
	var events []resultEvent
	for _, i := range idx {
		if i < 0 || i >= len(cfgs) {
			continue
		}
		key, err := runner.ConfigKey(cfgs[i])
		if err != nil {
			continue
		}
		if res, ok := s.cfg.ResultStore.Peek(runner.RecordKeys(cfgs[i], key, meta.Spec.Sample)...); ok {
			events = append(events, resultEvent{Index: i, Key: key, FromStore: true, Result: res})
		}
	}
	if missing := meta.Results - len(events); missing > 0 {
		writeError(w, http.StatusGone, "%d of the campaign's %d results are no longer stored; resubmit it to recompute them",
			missing, meta.Results)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	for _, ev := range events {
		if !s.writeEvent(w, ev) {
			return
		}
	}
	line, _ := json.Marshal(map[string]any{"done": true, "state": meta.State})
	w.Write(append(line, '\n')) //nolint:errcheck
}

// writeEvent writes one NDJSON line, reporting false when the stream is
// dead (client gone, or an injected stream fault). A failed stream
// write aborts the response; the durable results are untouched and a
// reconnect replays them.
func (s *Server) writeEvent(w http.ResponseWriter, ev resultEvent) bool {
	if err := fault.Err(fault.SiteServerStreamWrite); err != nil {
		telemetry.Server.StreamWriteErrors.Add(1)
		return false
	}
	line, err := json.Marshal(ev)
	if err != nil {
		telemetry.Server.StreamWriteErrors.Add(1)
		return false
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		telemetry.Server.StreamWriteErrors.Add(1)
		return false
	}
	return true
}

// Main is the pinted entrypoint, factored out of cmd/pinted so the
// crash-recovery property test can run the real server in a child
// process. It returns the process exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pinted", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "localhost:8322", "listen address (host:port; port 0 picks a free port)")
		data       = fs.String("data", "pinted-data", "data directory: the campaign manifest, and the result store unless -result-store moves it")
		workers    = fs.Int("workers", 0, "shared pool workers (0 = GOMAXPROCS)")
		timeout    = fs.Duration("timeout", 0, "per-run wall-clock budget (0 = unlimited)")
		retries    = fs.Int("retries", 0, "retries for runs that panic, time out or stall")
		backoff    = fs.Duration("backoff", 0, "base retry backoff (doubled per attempt with jitter)")
		stall      = fs.Duration("stall-grace", 0, "stuck-run watchdog grace (0 = wait forever)")
		drainGrace = fs.Duration("drain-grace", time.Minute, "how long a SIGTERM drain waits for in-flight runs")
		quotaRuns  = fs.Int("quota-queued-runs", 0, "per-tenant cap on queued runs (0 = unlimited)")
		quotaConc  = fs.Int("quota-concurrency", 0, "per-tenant cap on concurrent workers (0 = uncapped)")
		quotaBytes = fs.Int64("quota-result-bytes", 0, "per-tenant budget of stored-result bytes its campaigns received (0 = unlimited)")
		degradeAt  = fs.Int("degrade-queued-runs", 0, "service-wide backlog above which new campaigns run with capped fan-out groups (0 = never degrade)")
		degradeCap = fs.Int("degraded-max-group", 4, "fan-out group cap applied to degraded admissions")
		resStore   = fs.String("result-store", "", "result store, the campaigns' durable record shared by every tenant: dir[,MiB budget] (empty = <data>/results, unlimited)")
	)
	chaos := fault.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) {
		fmt.Fprintf(stderr, "pinted: "+format+"\n", a...)
	}
	if err := fault.Apply(*chaos); err != nil {
		logf("%v", err)
		return 1
	}

	dir, budget := filepath.Join(*data, "results"), int64(0)
	if *resStore != "" {
		var err error
		if dir, budget, err = rstore.ParseFlag(*resStore); err != nil {
			logf("%v", err)
			return 2
		}
	}
	// The result store is the campaigns' durable record: without it no
	// campaign survives a crash, so a store that will not open stops the
	// service.
	resultStore, err := rstore.Open(rstore.Options{Dir: dir, BudgetBytes: budget, Logf: logf})
	if err != nil {
		logf("result store: %v", err)
		return 1
	}
	defer resultStore.Close()
	st := resultStore.Stats()
	logf("result store %s: %d entries under %s (%d bytes)", dir, st.Entries, st.Fingerprint, st.Bytes)

	s, err := New(Config{
		DataDir:    *data,
		Workers:    *workers,
		RunTimeout: *timeout,
		Retries:    *retries,
		Backoff:    *backoff,
		StallGrace: *stall,
		Quotas: Quotas{
			MaxQueuedRuns:     *quotaRuns,
			MaxConcurrent:     *quotaConc,
			ResultBytes:       *quotaBytes,
			DegradeQueuedRuns: *degradeAt,
			DegradedMaxGroup:  *degradeCap,
		},
		ResultStore: resultStore,
		Logf:        logf,
	})
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer s.Close()
	s.Resume()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	// The address line is machine-readable on stdout: with -addr :0 a
	// harness learns the real port from it.
	fmt.Fprintf(stdout, "pinted: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logf("received %s: draining (grace %s)", sig, *drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			logf("drain: %v", err)
		}
		hs.Shutdown(ctx) //nolint:errcheck // best effort; the pool is already drained
		logf("drained; exiting")
		return 0
	case err := <-errc:
		logf("serve: %v", err)
		return 1
	}
}
