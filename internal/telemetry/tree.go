package telemetry

import (
	"expvar"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// The metrics tree is the process's one expvar, "pinte": seven groups
// served together at /debug/vars (over HTTP by the prof package's
// -debug endpoint and by pinted). DESIGN.md §8 tables every group and
// key. Five groups are counter structs (degraded, fanout, phase,
// server, store); replay and the store's size gauges are the live view
// of the newest replay cache and result store; campaigns is every
// registered campaign's progress.
var tree = publish(map[string]func() any{
	"campaigns": campaignsView,
	"replay":    func() any { return ReplayView.read() },
	"degraded":  func() any { return degradedGroup.snapshot(0) },
	"fanout":    func() any { return FanoutSnapshot() },
	"phase":     func() any { return PhaseSnapshot() },
	"server":    func() any { return ServerSnapshot() },
	"store":     func() any { return StoreSnapshot() },
})

// publish serves groups as expvar "pinte", reading each group on every
// scrape.
func publish(groups map[string]func() any) map[string]func() any {
	expvar.Publish("pinte", expvar.Func(func() any {
		out := make(map[string]any, len(groups))
		for name, read := range groups {
			out[name] = read()
		}
		return out
	}))
	return groups
}

// group is one counter group: its struct's atomic.Int64 fields and
// their snake_case keys, found once by reflection, so a new field is
// served with no other edit.
type group struct {
	keys []string
	vals []*atomic.Int64
}

var (
	degradedGroup = newGroup(&Degraded)
	fanoutGroup   = newGroup(&Fanout)
	phaseGroup    = newGroup(&Phase)
	serverGroup   = newGroup(&Server)
	storeGroup    = newGroup(&StoreC)
)

// newGroup walks the struct counters points to.
func newGroup(counters any) group {
	v := reflect.ValueOf(counters).Elem()
	var g group
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Type == reflect.TypeFor[atomic.Int64]() {
			g.keys = append(g.keys, snake(f.Name))
			g.vals = append(g.vals, (*atomic.Int64)(v.Field(i).Addr().UnsafePointer()))
		}
	}
	return g
}

// snake turns a Go field name into its key: StalledRuns → stalled_runs.
func snake(name string) string {
	var b []byte
	for i, c := range []byte(name) {
		if 'A' <= c && c <= 'Z' {
			if i > 0 {
				b = append(b, '_')
			}
			c += 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// snapshot reads every counter into a new map with room for extra
// more keys. Counters are read one by one, so a snapshot may straddle
// an update.
func (g group) snapshot(extra int) map[string]int64 {
	out := make(map[string]int64, len(g.keys)+extra)
	for i, k := range g.keys {
		out[k] = g.vals[i].Load()
	}
	return out
}

// FanoutSnapshot reads the fanout group.
func FanoutSnapshot() map[string]int64 { return fanoutGroup.snapshot(0) }

// PhaseSnapshot reads the phase group.
func PhaseSnapshot() map[string]int64 { return phaseGroup.snapshot(0) }

// ServerSnapshot reads the server group.
func ServerSnapshot() map[string]int64 { return serverGroup.snapshot(0) }

// StoreSnapshot reads the store group: the counters plus the newest
// result store's size gauges.
func StoreSnapshot() map[string]int64 {
	gauges := StoreView.read()
	out := storeGroup.snapshot(len(gauges))
	for k, v := range gauges {
		out[k] = v
	}
	return out
}

// Latest is the live view of the newest instance of an object a process
// usually holds one of. Show replaces the previous instance's view, so
// the tree keeps at most the newest instance alive.
type Latest[T any] struct{ view atomic.Pointer[func() T] }

// Show makes view the live view. It must be safe to call from any
// goroutine at any time.
func (l *Latest[T]) Show(view func() T) { l.view.Store(&view) }

// read returns the live view, or T's zero value before any Show.
func (l *Latest[T]) read() T {
	if v := l.view.Load(); v != nil {
		return (*v)()
	}
	var zero T
	return zero
}

var (
	// ReplayView is the newest replay cache's counters (the replay
	// group).
	ReplayView Latest[any]
	// StoreView is the newest result store's size gauges (bytes,
	// segments, entries), merged into the store group.
	StoreView Latest[map[string]int64]
)

// campaigns maps campaign ID → live *Progress for the campaigns group.
var campaigns sync.Map

// RegisterCampaign exposes p as campaign id's live progress in the
// campaigns group, replacing an earlier registration under id. The
// empty id is the slot of campaigns that have none: the command-line
// tools' one-campaign-per-process shape, where each new campaign
// replaces the last.
func RegisterCampaign(id string, p *Progress) { campaigns.Store(id, p) }

// UnregisterCampaign removes a finished campaign so a long-lived
// service's campaigns group stays bounded.
func UnregisterCampaign(id string) { campaigns.Delete(id) }

// CampaignProgress returns the live snapshot of a registered campaign.
func CampaignProgress(id string) (Snapshot, bool) {
	v, ok := campaigns.Load(id)
	if !ok {
		return Snapshot{}, false
	}
	return v.(*Progress).Snapshot(time.Now()), true
}

func campaignsView() any {
	now := time.Now()
	out := make(map[string]Snapshot)
	campaigns.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Progress).Snapshot(now)
		return true
	})
	return out
}
