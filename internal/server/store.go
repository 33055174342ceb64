package server

import (
	"bytes"
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
	"repro/internal/telemetry"
)

// CampaignState is a campaign's durable lifecycle state.
type CampaignState string

const (
	// StateActive marks a campaign the scheduler owns — queued,
	// running, or checkpointed by a drain/crash. A restarted server
	// relaunches every active campaign; its stored runs are store hits.
	StateActive CampaignState = "active"
	// StateDone marks a campaign whose every run completed.
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
	// Results counts the results a finished campaign received, computed
	// or from the result store; ResultBytes sums their store record
	// sizes, the tenant's stored-result quota charge. Both are persisted
	// with the terminal state; a live campaign counts them in memory.
	Results     int   `json:"results,omitempty"`
	ResultBytes int64 `json:"result_bytes,omitempty"`
	// Received lists, in config order, the indices of the results a
	// canceled or failed campaign received, persisted with its terminal
	// state: its finished stream serves exactly these. A done campaign
	// received every run and leaves it empty.
	Received []int `json:"received,omitempty"`
}

// manifest is the durable index of every campaign the service has
// accepted, serialized as one JSON document.
type manifest struct {
	Campaigns map[string]*CampaignMeta `json:"campaigns"`
}

// Store is the service's campaign manifest: manifest.json, mapping each
// campaign to its spec and state. The campaigns' results live in the
// result store (internal/store), keyed by config, not here. Manifest
// writes are atomic (temp + fsync + rename + directory sync) and roll
// back in memory on failure, so the in-memory view never claims
// durability it doesn't have — a crash at any instant leaves either the
// old manifest or the new one.
type Store struct {
	mu  sync.Mutex
	dir string
	m   manifest
	// buf holds the encoded manifest; enc writes compact JSON into it.
	// Both are reused across saves (under mu), so a save costs the
	// write, not a fresh copy of the whole manifest.
	buf bytes.Buffer
	enc *json.Encoder
}

// OpenStore opens (creating if needed) the manifest rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, m: manifest{Campaigns: make(map[string]*CampaignMeta)}}
	st.enc = json.NewEncoder(&st.buf)
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
	st.buf.Reset()
	if err := st.enc.Encode(&st.m); err != nil {
		return err
	}
	tmp := st.manifestPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		telemetry.Server.ManifestErrors.Add(1)
		return err
	}
	if _, err := f.Write(st.buf.Bytes()); err != nil {
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

// SetState transitions a campaign's durable state together with the
// indices of the results it received and their stored bytes (with
// rollback on a failed write), and stamps Finished for terminal states.
// The indices themselves are kept only for a campaign that did not end
// done.
func (st *Store) SetState(id string, state CampaignState, errMsg string, received []int, resultBytes int64) error {
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
	cur.Results, cur.ResultBytes, cur.Received = len(received), resultBytes, nil
	if state != StateDone {
		cur.Received = received
	}
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

// Delete removes a campaign's manifest record, releasing its quota
// charge; its results stay in the result store for any campaign that
// asks for them again. Only finished campaigns should be deleted; the
// caller enforces that.
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

// TenantResultBytes sums the persisted ResultBytes of tenant's
// campaigns, skipping those live reports true for: a live campaign
// counts its bytes in memory.
func (st *Store) TenantResultBytes(tenant string, live func(id string) bool) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total int64
	for id, m := range st.m.Campaigns {
		if m.Tenant == tenant && !live(id) {
			total += m.ResultBytes
		}
	}
	return total
}
