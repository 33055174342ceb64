package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/telemetry"
)

// CampaignState is a campaign's durable lifecycle state.
type CampaignState string

const (
	// StateActive marks a campaign the scheduler owns — queued,
	// running, or checkpointed by a drain/crash. A restarted server
	// resumes every active campaign from its journal.
	StateActive CampaignState = "active"
	// StateDone marks a campaign whose every run completed; its journal
	// is auto-compacted.
	StateDone CampaignState = "done"
	// StateFailed marks a campaign that finished with hard failures.
	StateFailed CampaignState = "failed"
	// StateCanceled marks a campaign canceled by its owner or killed by
	// its deadline.
	StateCanceled CampaignState = "canceled"
)

// CampaignMeta is one campaign's manifest record: everything a
// restarted server needs to rebuild the identical run list (the
// normalized spec) and account it (tenant, state, sizes).
type CampaignMeta struct {
	ID      string        `json:"id"`
	Tenant  string        `json:"tenant"`
	Spec    SweepSpec     `json:"spec"`
	State   CampaignState `json:"state"`
	Runs    int           `json:"runs"`
	Weight  int           `json:"weight"`
	Created time.Time     `json:"created"`
	// Finished is set when the campaign leaves StateActive; Error
	// summarises a failed campaign.
	Finished time.Time `json:"finished,omitempty"`
	Error    string    `json:"error,omitempty"`
	// Degraded records an admission under load shedding and the
	// fan-group cap it ran with, so a resume keeps the same grouping.
	Degraded    bool `json:"degraded,omitempty"`
	FanMaxGroup int  `json:"fan_max_group,omitempty"`
}

// manifest is the durable index of every campaign the service has
// accepted, serialized as one JSON document.
type manifest struct {
	Campaigns map[string]*CampaignMeta `json:"campaigns"`
}

// Store is the service's durable state: a manifest.json plus one resume
// journal per campaign under journals/. Manifest writes are atomic
// (temp + fsync + rename + directory sync) and roll back in memory on
// failure, so the in-memory view never claims durability it doesn't
// have — a crash at any instant leaves either the old manifest or the
// new one.
type Store struct {
	mu  sync.Mutex
	dir string
	m   manifest
}

// OpenStore opens (creating if needed) the durable store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "journals"), 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, m: manifest{Campaigns: make(map[string]*CampaignMeta)}}
	b, err := os.ReadFile(st.manifestPath())
	if errors.Is(err, os.ErrNotExist) {
		return st, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &st.m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", st.manifestPath(), err)
	}
	if st.m.Campaigns == nil {
		st.m.Campaigns = make(map[string]*CampaignMeta)
	}
	return st, nil
}

func (st *Store) manifestPath() string { return filepath.Join(st.dir, "manifest.json") }

// JournalPath is where campaign id checkpoints its completed runs.
func (st *Store) JournalPath(id string) string {
	return filepath.Join(st.dir, "journals", id+".journal")
}

// NewID mints a fresh campaign ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the platform CSPRNG failing is not recoverable
	}
	return "c-" + hex.EncodeToString(b[:])
}

// saveLocked persists the manifest atomically. The caller holds st.mu
// and must roll back its in-memory mutation if this fails.
func (st *Store) saveLocked() error {
	if err := fault.Err(fault.SiteServerManifest); err != nil {
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	b, err := json.MarshalIndent(&st.m, "", "  ")
	if err != nil {
		return err
	}
	tmp := st.manifestPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	if err := os.Rename(tmp, st.manifestPath()); err != nil {
		os.Remove(tmp)
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	if dir, err := os.Open(st.dir); err == nil {
		dir.Sync() //nolint:errcheck // advisory: data is already safe in the file
		dir.Close()
	}
	return nil
}

// Put inserts or replaces a campaign's manifest record durably. On a
// failed write the in-memory manifest is rolled back to the prior
// record, so a later retry or read sees the last state that actually
// reached disk.
func (st *Store) Put(meta CampaignMeta) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	old, had := st.m.Campaigns[meta.ID]
	cp := meta
	st.m.Campaigns[meta.ID] = &cp
	if err := st.saveLocked(); err != nil {
		if had {
			st.m.Campaigns[meta.ID] = old
		} else {
			delete(st.m.Campaigns, meta.ID)
		}
		return err
	}
	return nil
}

// SetState transitions a campaign's durable state (with rollback on a
// failed write) and stamps Finished for terminal states.
func (st *Store) SetState(id string, state CampaignState, errMsg string) error {
	// Chaos: the manifest site armed with a delay is a slow disk. It
	// stalls the transition before it takes the lock, so readers still
	// see the prior state for the whole stall.
	if d := fault.Delay(fault.SiteServerManifest); d > 0 {
		time.Sleep(d)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	cur, ok := st.m.Campaigns[id]
	if !ok {
		return fmt.Errorf("campaign %s not in manifest", id)
	}
	old := *cur
	cur.State = state
	cur.Error = errMsg
	if state != StateActive {
		cur.Finished = time.Now().UTC()
	} else {
		cur.Finished = time.Time{}
	}
	if err := st.saveLocked(); err != nil {
		*cur = old
		return err
	}
	return nil
}

// Delete removes a campaign's manifest record and journal. Only
// finished campaigns should be deleted; the caller enforces that.
func (st *Store) Delete(id string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	old, had := st.m.Campaigns[id]
	if !had {
		return nil
	}
	delete(st.m.Campaigns, id)
	if err := st.saveLocked(); err != nil {
		st.m.Campaigns[id] = old
		return err
	}
	if err := os.Remove(st.JournalPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// Get returns a copy of one campaign's record.
func (st *Store) Get(id string) (CampaignMeta, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	m, ok := st.m.Campaigns[id]
	if !ok {
		return CampaignMeta{}, false
	}
	return *m, true
}

// Campaigns returns copies of every record, oldest first (ID tiebreak).
func (st *Store) Campaigns() []CampaignMeta {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]CampaignMeta, 0, len(st.m.Campaigns))
	for _, m := range st.m.Campaigns {
		out = append(out, *m)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].Created.Equal(out[b].Created) {
			return out[a].Created.Before(out[b].Created)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// TenantJournalBytes sums a tenant's durable-journal footprint for the
// quota check.
func (st *Store) TenantJournalBytes(tenant string) int64 {
	st.mu.Lock()
	ids := make([]string, 0, len(st.m.Campaigns))
	for id, m := range st.m.Campaigns {
		if m.Tenant == tenant {
			ids = append(ids, id)
		}
	}
	st.mu.Unlock()
	var total int64
	for _, id := range ids {
		if fi, err := os.Stat(st.JournalPath(id)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// CompactCampaign compacts one campaign's journal in place (atomic
// rewrite), counting the auto-compaction. A missing journal — a
// campaign that never completed a run — is not an error.
func (st *Store) CompactCampaign(id string) (bool, error) {
	_, err := runner.CompactJournal(st.JournalPath(id))
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err == nil {
		telemetry.Server.AutoCompactions.Add(1)
	}
	return err == nil, err
}

// CompactFinished compacts every finished campaign's journal — the
// restart half of auto-compaction: a server that crashed after a
// campaign completed but before its compaction ran picks the work up
// here. Returns how many journals were compacted; per-journal failures
// are reported through logf and skipped (a journal that cannot be
// compacted still loads fine — compaction is an optimisation, not a
// correctness requirement).
func (st *Store) CompactFinished(logf func(format string, args ...any)) int {
	n := 0
	for _, m := range st.Campaigns() {
		if m.State == StateActive {
			continue
		}
		ok, err := st.CompactCampaign(m.ID)
		if err != nil {
			if logf != nil {
				logf("compacting journal of finished campaign %s: %v", m.ID, err)
			}
			continue
		}
		if ok {
			n++
		}
	}
	return n
}
