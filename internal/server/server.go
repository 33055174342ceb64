package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
	"repro/internal/sim"
	rstore "repro/internal/store"
	"repro/internal/telemetry"
)

// Config tunes one Server. Zero values mean: GOMAXPROCS workers, no
// quotas, no per-run deadline, no retries, fan-out on.
type Config struct {
	// DataDir roots the campaign manifest. Required.
	DataDir string
	// Workers sizes the shared pool; <= 0 means GOMAXPROCS.
	Workers int
	// Quotas is the per-tenant admission policy.
	Quotas Quotas
	// Per-run orchestrator knobs, applied to every campaign.
	RunTimeout time.Duration
	Retries    int
	Backoff    time.Duration
	StallGrace time.Duration
	// NoFanout disables one-decode fan-out groups (they are on by
	// default: the service exists to run big sweeps cheaply).
	NoFanout bool
	// ResultStore is the campaigns' durable record, shared by every
	// campaign of every tenant. Required. A computed run is stored
	// before it is streamed, a restarted campaign finds its finished
	// runs there, and identical configs submitted by any tenants are
	// computed once — finished results hit the store, concurrent
	// duplicates collapse onto one in-flight computation — while each
	// campaign still streams its own copy. Per-tenant admission quotas
	// are unchanged: a tenant's result bytes count what its campaigns
	// received, however cheaply. The caller opens and closes it.
	ResultStore *rstore.Store
	// Logf receives service and campaign log lines; nil means silent.
	Logf func(format string, args ...any)
}

// resultEvent is one line on a campaign's result stream.
type resultEvent struct {
	// Index is the run's position in the spec's canonical config order.
	Index int    `json:"index"`
	Key   string `json:"key"`
	// FromStore marks a result served from the result store — stored
	// earlier by any campaign, this one before a restart included —
	// rather than computed by this campaign.
	FromStore bool        `json:"from_store,omitempty"`
	Result    *sim.Result `json:"result"`
}

// campaign is one live campaign: its manifest record, its in-memory
// result log (the stream replay buffer), and its cancellation handle.
type campaign struct {
	meta CampaignMeta
	// resultBytes sums the store record sizes of the results received
	// so far: the campaign's live quota charge.
	resultBytes atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	events   []resultEvent
	finished bool
	final    CampaignState // valid once finished

	cancel       context.CancelFunc
	userCanceled atomic.Bool
	done         chan struct{}
}

// record is the orchestrator's OnResult hook: append to the stream
// replay buffer and wake every attached stream.
func (c *campaign) record(index int, key string, res *sim.Result, fromStore bool) {
	c.mu.Lock()
	c.events = append(c.events, resultEvent{Index: index, Key: key, FromStore: fromStore, Result: res})
	c.mu.Unlock()
	c.cond.Broadcast()
}

// received counts the results recorded so far.
func (c *campaign) received() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// finish marks the stream complete with the campaign's final state.
func (c *campaign) finish(state CampaignState) {
	c.mu.Lock()
	c.finished = true
	c.final = state
	c.mu.Unlock()
	c.cond.Broadcast()
	close(c.done)
}

// Server is the campaign service: manifest + result store + shared pool
// + the live-campaign table the HTTP API fronts.
type Server struct {
	cfg   Config
	store *Store
	pool  *runner.Pool

	baseCtx context.Context
	stop    context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaign
	draining  bool

	wg        sync.WaitGroup // one per live campaign goroutine
	start     time.Time
	completed atomic.Int64 // runs computed since start, for Retry-After rate
}

// New opens the manifest and starts the shared pool. The server does
// not resume or listen yet: call Resume, then serve Handler.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir is required")
	}
	if cfg.ResultStore == nil {
		return nil, fmt.Errorf("server: ResultStore is required")
	}
	store, err := OpenStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     store,
		pool:      runner.NewPool(cfg.Workers),
		baseCtx:   ctx,
		stop:      cancel,
		campaigns: make(map[string]*campaign),
		start:     time.Now(),
	}
	return s, nil
}

// Store exposes the campaign manifest (read paths for the HTTP API).
func (s *Server) Store() *Store { return s.store }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Resume reloads the manifest and relaunches every active campaign —
// checkpointed by a drain or cut off by a crash. Its stored runs come
// back as admission-time store hits, so a restart runs exactly the runs
// that never completed. Finished campaigns are left alone. Returns how
// many campaigns were resumed.
func (s *Server) Resume() int {
	resumed := 0
	for _, m := range s.store.Campaigns() {
		if m.State != StateActive {
			continue
		}
		m := m
		s.mu.Lock()
		c := s.track(m)
		s.mu.Unlock()
		telemetry.Server.ResumedCampaigns.Add(1)
		s.logf("restart: resuming campaign %s (%s, %d runs)", m.ID, m.Tenant, m.Runs)
		s.logf("campaign %s: resume: %d of %d runs already stored", m.ID, s.storedRuns(m.Spec), m.Runs)
		s.launch(c)
		resumed++
	}
	return resumed
}

// storedRuns counts the runs of spec whose results the result store
// holds where a campaign of spec looks for them.
func (s *Server) storedRuns(spec SweepSpec) int {
	n := 0
	for _, cfg := range spec.Configs() {
		key, err := runner.ConfigKey(cfg)
		if err != nil {
			continue
		}
		for _, k := range runner.RecordKeys(cfg, key, spec.Sample) {
			if s.cfg.ResultStore.Size(k) > 0 {
				n++
				break
			}
		}
	}
	return n
}

// track registers a campaign in the live table (caller holds s.mu) and
// applies the tenant's pool cap.
func (s *Server) track(meta CampaignMeta) *campaign {
	c := &campaign{meta: meta, done: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	s.campaigns[meta.ID] = c
	if s.cfg.Quotas.MaxConcurrent > 0 {
		s.pool.SetTenantCap(meta.Tenant, s.cfg.Quotas.MaxConcurrent)
	}
	telemetry.Server.ActiveCampaigns.Add(1)
	return c
}

// queuedLocked estimates pending (admitted, not yet completed) runs per
// tenant and in total, from each live campaign's progress snapshot —
// or its full run count while the orchestrator is still starting up.
func (s *Server) queuedLocked() (perTenant map[string]int64, total int64) {
	perTenant = make(map[string]int64)
	for id, c := range s.campaigns {
		rem := int64(c.meta.Runs)
		if snap, ok := telemetry.CampaignProgress(id); ok {
			rem = snap.Total - snap.Completed - snap.Failed
			if rem < 0 {
				rem = 0
			}
		}
		perTenant[c.meta.Tenant] += rem
		total += rem
	}
	return perTenant, total
}

// runsPerSec is the service-wide completion rate since start.
func (s *Server) runsPerSec() float64 {
	el := time.Since(s.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(s.completed.Load()) / el
}

// resultBytesLocked is tenant's stored-result quota charge: the
// persisted bytes of its finished campaigns plus the in-memory bytes of
// its live ones (caller holds s.mu).
func (s *Server) resultBytesLocked(tenant string) int64 {
	total := s.store.TenantResultBytes(tenant, func(id string) bool {
		_, live := s.campaigns[id]
		return live
	})
	for _, c := range s.campaigns {
		if c.meta.Tenant == tenant {
			total += c.resultBytes.Load()
		}
	}
	return total
}

// admit applies admission control to one submission and, when it
// passes, durably records and launches the campaign. The returned
// decision carries refusal details (status, reason, Retry-After)
// otherwise.
func (s *Server) admit(tenant string, spec SweepSpec) (CampaignMeta, decision, error) {
	telemetry.Server.Submitted.Add(1)
	runs := spec.Runs()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		telemetry.Server.RefusedDraining.Add(1)
		return CampaignMeta{}, decision{status: 503, reason: "server is draining", retryAfter: 10 * time.Second}, nil
	}
	perTenant, total := s.queuedLocked()
	d := decide(s.cfg.Quotas, load{
		tenantQueued:      perTenant[tenant],
		totalQueued:       total,
		tenantResultBytes: s.resultBytesLocked(tenant),
		runsPerSec:        s.runsPerSec(),
	}, runs)
	if !d.admit {
		s.mu.Unlock()
		telemetry.Server.RefusedQuota.Add(1)
		return CampaignMeta{}, d, nil
	}

	meta := CampaignMeta{
		ID:          NewID(),
		Tenant:      tenant,
		Spec:        spec.normalized(),
		State:       StateActive,
		Runs:        runs,
		Weight:      spec.normalized().Weight,
		Created:     time.Now().UTC(),
		Degraded:    d.degraded,
		FanMaxGroup: d.fanMaxGroup,
	}
	// The manifest write happens before the campaign is visible or
	// scheduled: an admission the client saw acknowledged is always
	// resumable after a crash.
	if err := s.store.Put(meta); err != nil {
		s.mu.Unlock()
		return CampaignMeta{}, decision{}, err
	}
	c := s.track(meta)
	s.mu.Unlock()

	telemetry.Server.Admitted.Add(1)
	if d.degraded {
		telemetry.Server.DegradedAdmissions.Add(1)
		s.logf("campaign %s (%s) admitted degraded: fan-out groups capped at %d under load", meta.ID, tenant, d.fanMaxGroup)
	}
	s.launch(c)
	return meta, d, nil
}

// launch starts the campaign's orchestrator goroutine on the shared
// pool.
func (s *Server) launch(c *campaign) {
	cctx, cancel := context.WithCancel(s.baseCtx)
	if d := c.meta.Spec.DeadlineSeconds; d > 0 {
		// The campaign deadline re-arms from launch on a resume: the
		// budget bounds one service's exposure, not cumulative history.
		cctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(d*float64(time.Second)))
	}
	c.cancel = cancel
	cfgs := c.meta.Spec.Configs()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()
		orc := runner.New(runner.Options{
			Timeout:     s.cfg.RunTimeout,
			Retries:     s.cfg.Retries,
			Backoff:     s.cfg.Backoff,
			StallGrace:  s.cfg.StallGrace,
			Logf:        s.campaignLogf(c.meta.ID),
			Fanout:      !s.cfg.NoFanout,
			FanMaxGroup: c.meta.FanMaxGroup,
			Sample:      c.meta.Spec.Sample,
			Pool:        s.pool,
			Tenant:      c.meta.Tenant,
			Weight:      c.meta.Weight,
			CampaignID:  c.meta.ID,
			Store:       s.cfg.ResultStore,
			OnResult: func(index int, key string, res *sim.Result, fromStore bool) {
				if !fromStore {
					s.completed.Add(1)
				}
				c.resultBytes.Add(s.cfg.ResultStore.Size(runner.RecordKey(key, res)))
				c.record(index, key, res, fromStore)
			},
		})
		out, err := orc.RunAll(cctx, cfgs)
		s.finalize(c, cctx, out, err)
	}()
}

// campaignLogf prefixes a campaign's orchestrator lines with its ID.
func (s *Server) campaignLogf(id string) func(string, ...any) {
	if s.cfg.Logf == nil {
		return nil
	}
	return func(format string, args ...any) {
		s.logf("campaign %s: "+format, append([]any{id}, args...)...)
	}
}

// finalize classifies a finished campaign run, persists its terminal
// state with the results it received (or leaves it active when a drain
// checkpointed it), retires it from the live table, and releases the
// stream. A lost terminal-state write leaves the campaign active, and
// the next start resumes it with every run already stored and finalizes
// it again. The state is persisted before the campaign leaves the live
// table: a stream that connects in between is served from the manifest,
// which must already hold the final state.
func (s *Server) finalize(c *campaign, cctx context.Context, out *runner.Outcome, err error) {
	id := c.meta.ID
	canceled, hard := 0, 0
	if out != nil {
		for _, f := range out.HardFailures() {
			if errors.Is(f.Err, sim.ErrCanceled) {
				canceled++
			} else {
				hard++
			}
		}
	}
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()

	var state CampaignState
	var msg string
	switch {
	case err != nil:
		// A campaign-level fault.
		state, msg = StateFailed, err.Error()
	case draining && canceled > 0 && hard == 0 && !c.userCanceled.Load():
		// Drain checkpoint: the shed runs stay unstored and the
		// manifest stays active, so the next start resumes them.
		s.logf("campaign %s: checkpointed by drain with %d runs pending; will resume on restart", id, canceled)
		s.retire(id)
		c.finish(StateActive)
		return
	case c.userCanceled.Load():
		state, msg = StateCanceled, "canceled by owner"
	case canceled > 0 && cctx.Err() != nil:
		state, msg = StateCanceled, "campaign deadline exceeded"
	case hard > 0:
		state, msg = StateFailed, fmt.Sprintf("%d of %d runs failed", hard, c.meta.Runs)
	default:
		state = StateDone
	}

	if serr := s.store.SetState(id, state, msg, c.received(), c.resultBytes.Load()); serr != nil {
		// The state transition will be retried by the next restart's
		// classification (an active manifest entry whose runs are all
		// stored resumes to an immediate re-finalize).
		s.logf("campaign %s: persisting final state %s: %v", id, state, serr)
	}
	s.retire(id)
	switch state {
	case StateDone:
		telemetry.Server.CampaignsDone.Add(1)
		s.logf("campaign %s: done (%d runs)", id, c.meta.Runs)
	case StateFailed:
		telemetry.Server.CampaignsFailed.Add(1)
		s.logf("campaign %s: failed: %s", id, msg)
	case StateCanceled:
		telemetry.Server.CampaignsCanceled.Add(1)
		s.logf("campaign %s: canceled: %s", id, msg)
	}
	c.finish(state)
}

// retire removes a finished campaign from the live table.
func (s *Server) retire(id string) {
	telemetry.UnregisterCampaign(id)
	s.mu.Lock()
	delete(s.campaigns, id)
	s.mu.Unlock()
	telemetry.Server.ActiveCampaigns.Add(-1)
}

// Cancel cancels a live campaign. It reports whether id was live.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	c, ok := s.campaigns[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	c.userCanceled.Store(true)
	c.cancel()
	return true
}

// live returns the live campaign for id, if any.
func (s *Server) live(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// Draining reports whether a drain has started.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain is the graceful-shutdown contract: stop admitting (every later
// submission gets 503), shed the pool's queued runs back to their
// campaigns, let in-flight runs finish and store their results, and
// wait for every campaign goroutine to persist its outcome — or for
// ctx to expire, whichever is first. Every computed result is fsynced
// into the result store before it is streamed, so at Drain's return
// every completed run is on stable storage.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		telemetry.Server.Drains.Add(1)
		s.logf("drain: admission stopped, shedding queued runs")
	}
	perr := s.pool.Drain(ctx)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if perr == nil {
			perr = ctx.Err()
		}
	}
	return perr
}

// Close releases the pool and cancels any still-running campaign
// context. Call after Drain (or instead of it for a hard stop).
func (s *Server) Close() {
	s.stop()
	s.pool.Close()
}
