package telemetry

import (
	"expvar"
	"sync"
	"sync/atomic"
	"time"
)

// ServerCounters is the process-wide tally of the campaign service
// (cmd/pinted, internal/server): what was admitted, what was refused
// and why, and every degraded-mode event the service survived. Served
// on the expvar page as "pinte.server" next to "pinte.degraded", so an
// operator can see at a glance whether the farm is admitting cleanly,
// shedding load, or refusing work.
type ServerCounters struct {
	// Submitted counts campaign submissions received; Admitted the
	// subset accepted into the scheduler.
	Submitted atomic.Int64
	Admitted  atomic.Int64
	// RefusedQuota counts submissions refused 429 over a tenant quota;
	// RefusedDraining counts submissions refused 503 during drain;
	// RefusedFault counts submissions refused because the admission
	// check itself failed (an injected or real service fault).
	RefusedQuota    atomic.Int64
	RefusedDraining atomic.Int64
	RefusedFault    atomic.Int64
	// DegradedAdmissions counts campaigns admitted under load shedding:
	// accepted, but with their fan-out groups capped to a smaller size
	// so the service degrades before it refuses work.
	DegradedAdmissions atomic.Int64
	// ActiveCampaigns is the live gauge of campaigns currently owned by
	// the scheduler (queued or running).
	ActiveCampaigns atomic.Int64
	// CampaignsDone / CampaignsFailed / CampaignsCanceled classify
	// finished campaigns.
	CampaignsDone     atomic.Int64
	CampaignsFailed   atomic.Int64
	CampaignsCanceled atomic.Int64
	// ResumedCampaigns counts campaigns reloaded from the durable store
	// on restart and resumed from their journals.
	ResumedCampaigns atomic.Int64
	// AutoCompactions counts journals compacted automatically as their
	// campaigns reach a terminal state (done, failed or canceled),
	// before that state is persisted. A restart compacts no finished
	// journal.
	AutoCompactions atomic.Int64
	// PoolShedTasks counts queued runs shed back to their campaigns
	// (reported as ErrCanceled, journaled work untouched) by a drain.
	PoolShedTasks atomic.Int64
	// StreamWriteErrors counts result-stream writes toward clients that
	// failed; the stream is aborted, the stored results are untouched
	// and a reconnect replays them.
	StreamWriteErrors atomic.Int64
	// ManifestErrors counts durable-manifest writes that failed (the
	// mutation is rolled back, the previous manifest stays in force).
	ManifestErrors atomic.Int64
	// Drains counts graceful drains started.
	Drains atomic.Int64
}

// Server is the process-wide instance the campaign service reports
// into.
var Server ServerCounters

// ServerSnapshot is one consistent-enough read of the counters.
func ServerSnapshot() map[string]int64 {
	return map[string]int64{
		"submitted":           Server.Submitted.Load(),
		"admitted":            Server.Admitted.Load(),
		"refused_quota":       Server.RefusedQuota.Load(),
		"refused_draining":    Server.RefusedDraining.Load(),
		"refused_fault":       Server.RefusedFault.Load(),
		"degraded_admissions": Server.DegradedAdmissions.Load(),
		"active_campaigns":    Server.ActiveCampaigns.Load(),
		"campaigns_done":      Server.CampaignsDone.Load(),
		"campaigns_failed":    Server.CampaignsFailed.Load(),
		"campaigns_canceled":  Server.CampaignsCanceled.Load(),
		"resumed_campaigns":   Server.ResumedCampaigns.Load(),
		"auto_compactions":    Server.AutoCompactions.Load(),
		"pool_shed_tasks":     Server.PoolShedTasks.Load(),
		"stream_write_errors": Server.StreamWriteErrors.Load(),
		"manifest_errors":     Server.ManifestErrors.Load(),
		"drains":              Server.Drains.Load(),
	}
}

func init() {
	expvar.Publish("pinte.server", expvar.Func(func() any {
		return ServerSnapshot()
	}))
}

// campaignRegistry maps campaign ID → live *Progress for every campaign
// the service currently owns. Unlike the process-wide "pinte.campaign"
// last-campaign-wins view the CLI tools publish, the registry serves
// every concurrent campaign side by side as "pinte.campaigns".
var campaignRegistry sync.Map

// RegisterCampaign exposes p as campaign id's live progress on the
// "pinte.campaigns" expvar map. A later registration under the same id
// replaces the earlier one.
func RegisterCampaign(id string, p *Progress) { campaignRegistry.Store(id, p) }

// UnregisterCampaign removes a finished campaign from the registry so
// a long-lived service's expvar page stays bounded.
func UnregisterCampaign(id string) { campaignRegistry.Delete(id) }

// CampaignProgress returns the live snapshot of a registered campaign.
func CampaignProgress(id string) (Snapshot, bool) {
	v, ok := campaignRegistry.Load(id)
	if !ok {
		return Snapshot{}, false
	}
	return v.(*Progress).Snapshot(time.Now()), true
}

func init() {
	expvar.Publish("pinte.campaigns", expvar.Func(func() any {
		now := time.Now()
		out := make(map[string]Snapshot)
		campaignRegistry.Range(func(k, v any) bool {
			out[k.(string)] = v.(*Progress).Snapshot(now)
			return true
		})
		return out
	}))
}
