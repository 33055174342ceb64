package telemetry

import "sync/atomic"

// The tree's counter groups. Each is a struct of atomic.Int64 fields
// with one process-wide instance; the tree serves a field under its
// snake_case name (tree.go), so adding a counter is one field.

// DegradationCounters is the process-wide tally of every degraded-mode
// event in the persistence and execution stack: cases where the system
// survived a fault by dropping to a slower or lossier path instead of
// corrupting state or wedging. Each counter pairs with one rung of the
// degradation ladder documented in DESIGN.md §10; the tree serves them
// as the degraded group, so a long campaign's operator can see at a
// glance whether results were produced cleanly or under degradation.
type DegradationCounters struct {
	// ReplayCorruptChunks counts recorded flag chunks and value pages
	// whose checksum failed verification; ReplayFallbacks counts replayers that
	// switched to live regeneration because of one.
	ReplayCorruptChunks atomic.Int64
	ReplayFallbacks     atomic.Int64
	// StalledRuns counts wedged workers the watchdog abandoned with a
	// typed ErrStalled instead of hanging the campaign.
	StalledRuns atomic.Int64
}

// Degraded is the process-wide instance every package reports into.
var Degraded DegradationCounters

// FanoutCounters is the process-wide tally of the fan-out sweep
// executor (internal/runner + internal/sim): how many sweep groups were
// formed, how many points rode a shared decode, and how much decode
// work the sharing saved. The tree serves it as the fanout group, so
// a campaign's operator can verify the one-decode invariant — at
// most one decode pass per group (DecodePasses <= GroupsFormed), with
// PointsFanned − DecodePasses passes saved. A group whose points cannot
// share a front end runs them per-run and spends no shared pass.
type FanoutCounters struct {
	// GroupsFormed counts fan-out groups scheduled (internal/runner);
	// PointsFanned counts the sweep points that shared a decode inside
	// them (internal/sim).
	GroupsFormed atomic.Int64
	PointsFanned atomic.Int64
	// DecodePasses counts shared trace decode passes (at most one per
	// group); DecodePassesSaved counts the passes a sequential sweep
	// would have spent on the fanned points minus those.
	DecodePasses      atomic.Int64
	DecodePassesSaved atomic.Int64
	// FallbackPoints counts points that left the fan-out path for the
	// sequential per-run path (failed, stalled or aborted mid-group);
	// GroupAborts counts whole groups abandoned to the sequential path.
	FallbackPoints atomic.Int64
	GroupAborts    atomic.Int64
}

// Fanout is the process-wide instance the fan-out scheduler reports
// into.
var Fanout FanoutCounters

// PhaseCounters is the process-wide tally of phase-aware representative
// sampling (internal/phase + internal/sim + internal/runner): how many
// profiling pre-passes ran, how many sampling plans were built and with
// how many phases, and the instruction budget the sampled runs paid
// versus skipped. The tree serves it as the phase group, so a
// campaign's operator can see the budget saved live —
// InstrsSkipped / (InstrsSimulated + InstrsSkipped) is the fraction of
// detailed simulation the phase model removed.
type PhaseCounters struct {
	// ProfileRuns counts telemetry-only profiling pre-passes executed;
	// ProfileFailures counts pre-passes that failed (their member runs
	// stay on the full-ROI path).
	ProfileRuns     atomic.Int64
	ProfileFailures atomic.Int64
	// PlansBuilt counts sampling plans produced by the clusterer and
	// PhasesFound the total phases across them.
	PlansBuilt  atomic.Int64
	PhasesFound atomic.Int64
	// SampledRuns counts runs executed in sampled mode;
	// SampledFallbacks counts sampled attempts that failed and were
	// re-run on the full-ROI path.
	SampledRuns      atomic.Int64
	SampledFallbacks atomic.Int64
	// IntervalsSimulated / IntervalsSkipped count profile intervals
	// covered by a representative window versus reconstructed from one.
	IntervalsSimulated atomic.Int64
	IntervalsSkipped   atomic.Int64
	// InstrsSimulated / InstrsSkipped count primary-core instructions
	// executed in detail (window warmup + windows) versus fast-forwarded.
	InstrsSimulated atomic.Int64
	InstrsSkipped   atomic.Int64
}

// Phase is the process-wide instance the sampling stack reports into.
var Phase PhaseCounters

// ServerCounters is the process-wide tally of the campaign service
// (cmd/pinted, internal/server): what was admitted, what was refused
// and why, and every degraded-mode event the service survived. The
// tree serves it as the server group next to degraded, so an
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
	// ResumedCampaigns counts active campaigns relaunched from the
	// manifest on restart; their stored runs come back as store hits.
	ResumedCampaigns atomic.Int64
	// PoolShedTasks counts queued runs shed back to their campaigns
	// (reported as ErrCanceled, stored work untouched) by a drain.
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

// StoreCounters is the process-wide tally of the cross-campaign result
// store (internal/store) plus the expt memo that sits above it, served
// as the tree's store group so one dashboard covers both caching layers:
// the in-process memo and the durable content-addressed store beneath
// it.
type StoreCounters struct {
	// Hits counts lookups served from the store; Misses counts lookups
	// that found nothing under the current simulator fingerprint.
	Hits   atomic.Int64
	Misses atomic.Int64
	// Puts counts results durably appended; PutErrors counts appends
	// that failed (the run still succeeded and keeps its result — the
	// campaign reports a record-only failure, never a failed run).
	Puts      atomic.Int64
	PutErrors atomic.Int64
	// ReadErrors counts hit read-backs that failed (I/O error or a
	// checksum mismatch); the entry is dropped from the index and the
	// lookup degrades to a miss.
	ReadErrors atomic.Int64
	// CorruptRecords counts mid-segment records dropped during an open
	// scan (bad JSON or a failed CRC): the scan continues and every
	// intact record after them still loads.
	CorruptRecords atomic.Int64
	// TornTails counts benign final-record truncations (a crash or a
	// failed append mid-record) trimmed away on open.
	TornTails atomic.Int64
	// StaleSkipped counts records seen at open whose simulator
	// fingerprint differs from the current build: kept on disk for
	// comparison, never indexed, never served.
	StaleSkipped atomic.Int64
	// Evictions / EvictedBytes tally byte-budget segment GC.
	Evictions    atomic.Int64
	EvictedBytes atomic.Int64
	// OpenErrors counts store opens that failed.
	OpenErrors atomic.Int64
	// SingleflightShared counts runs that blocked on another campaign's
	// in-flight computation of the same config and shared its result;
	// SingleflightRetries counts waiters woken into their own attempt
	// by a failed or panicked leader.
	SingleflightShared  atomic.Int64
	SingleflightRetries atomic.Int64
	// MemoHits / MemoMisses are the expt in-process memo layer, folded
	// in here so the warm layer and the durable layer share a
	// dashboard.
	MemoHits   atomic.Int64
	MemoMisses atomic.Int64
}

// StoreC is the process-wide instance the store and the expt memo
// report into.
var StoreC StoreCounters
