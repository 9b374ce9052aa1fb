package obsv

// The /debug/split schema: a neutral, JSON-stable description of one
// endpoint's live split state. internal/jecho fills these from its
// publisher/subscriber internals; keeping the types here means the
// introspection surface is defined (and versioned) in one place and any
// future endpoint can reuse it.

// EndpointStatus is the split state of one endpoint (a publisher or a
// subscriber) at snapshot time.
type EndpointStatus struct {
	// Role is "publisher" or "subscriber".
	Role string `json:"role"`
	// Name identifies the endpoint (listen address or subscriber name).
	Name string `json:"name"`
	// Channels holds one entry per live subscription (publisher side) or
	// the single subscription (subscriber side).
	Channels []ChannelStatus `json:"channels"`
	// PlanClasses is the number of live plan-equivalence classes
	// (publisher side): subscriptions sharing a class share one modulation
	// per event.
	PlanClasses int `json:"plan_classes,omitempty"`
	// ModulationsSaved counts the per-subscriber modulator runs avoided by
	// class sharing (publisher side).
	ModulationsSaved uint64 `json:"modulations_saved,omitempty"`
}

// ChannelStatus is the live state of one subscription's split loop.
type ChannelStatus struct {
	// ID is the subscription id (publisher side) or subscriber name.
	ID string `json:"id"`
	// Channel is the event channel the subscription is attached to.
	Channel string `json:"channel"`
	// Handler is the installed handler's name.
	Handler string `json:"handler"`
	// PlanVersion is the active partitioning plan's version.
	PlanVersion uint64 `json:"plan_version"`
	// Split is the active plan's flagged split set.
	Split []int32 `json:"split"`
	// QueueLen is the instantaneous outbound queue depth (publisher).
	QueueLen int `json:"queue_len"`
	// Metrics is the endpoint's counter snapshot, keyed by counter name.
	Metrics map[string]uint64 `json:"metrics"`
	// PSEs is the live UG/PSE table with profiled statistics.
	PSEs []PSEStatus `json:"pses"`
	// Breakers lists the PSEs with non-closed (or recently failing)
	// breaker state; empty when every breaker is closed and idle.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
	// LastMinCut explains the most recent plan selection, when one ran on
	// this endpoint (the publisher only runs one to degrade).
	LastMinCut *MinCutStatus `json:"last_min_cut,omitempty"`
	// Link is the live link estimate feeding the reconfiguration unit,
	// when link estimation is enabled on this endpoint.
	Link *LinkStatus `json:"link,omitempty"`
}

// LinkStatus is one subscription's live link estimate: the smoothed
// measurements and how many samples back each axis. A busy channel whose
// RTT sample count stays at zero (while heartbeats flow) indicates a
// broken estimator or lost echoes.
type LinkStatus struct {
	// RTTMS is the smoothed round-trip time in milliseconds (0 until the
	// first echo).
	RTTMS float64 `json:"rtt_ms"`
	// BandwidthBytesPerMS is the smoothed effective bandwidth.
	BandwidthBytesPerMS float64 `json:"bandwidth_bytes_per_ms"`
	// RTTSamples / BandwidthSamples count the samples behind each axis.
	RTTSamples       uint64 `json:"rtt_samples"`
	BandwidthSamples uint64 `json:"bandwidth_samples"`
	// Warm reports whether at least one axis has cleared its warm-up gate
	// and is overriding the configured environment.
	Warm bool `json:"warm"`
}

// PSEStatus is one row of the live UG/PSE table: the edge's place in the
// Unit Graph plus its current profiled statistics.
type PSEStatus struct {
	// ID is the dense PSE id (0 is the synthetic raw PSE).
	ID int32 `json:"id"`
	// From/To are the Unit Graph nodes the edge connects.
	From int `json:"from"`
	To   int `json:"to"`
	// Vars is the hand-over set (live variables crossing the edge).
	Vars []string `json:"vars,omitempty"`
	// InSplit reports whether the active plan splits here.
	InSplit bool `json:"in_split"`
	// Profiled reports whether the active plan profiles this edge.
	Profiled bool `json:"profiled"`
	// Count, Bytes, ModWork, DemodWork, Prob, Failures mirror the
	// profiled costmodel.Stat driving the min-cut.
	Count     uint64  `json:"count"`
	Bytes     float64 `json:"bytes"`
	ModWork   float64 `json:"mod_work"`
	DemodWork float64 `json:"demod_work"`
	Prob      float64 `json:"prob"`
	Failures  uint64  `json:"failures"`
}

// BreakerStatus is one PSE's circuit-breaker state.
type BreakerStatus struct {
	// PSE is the guarded split edge.
	PSE int32 `json:"pse"`
	// State is "closed", "open" or "half-open".
	State string `json:"state"`
	// WindowFailures counts failures inside the current window (closed
	// state).
	WindowFailures int `json:"window_failures,omitempty"`
	// OpenRemainingMS is the cooldown left before the half-open probe
	// (open state).
	OpenRemainingMS int64 `json:"open_remaining_ms,omitempty"`
}

// MinCutStatus explains one reconfiguration-unit plan selection: the
// inputs it priced and the cut it chose.
type MinCutStatus struct {
	// Version is the plan version the selection produced.
	Version uint64 `json:"version"`
	// Cut is the chosen split set.
	Cut []int32 `json:"cut"`
	// CutValue is the min-cut capacity (cost-model units).
	CutValue int64 `json:"cut_value"`
	// Tripped lists the PSEs priced out by open breakers.
	Tripped []int32 `json:"tripped,omitempty"`
	// Capacities are the per-PSE edge capacities the selection priced,
	// indexed by PSE id.
	Capacities map[int32]int64 `json:"capacities"`
	// Profiled reports how many PSEs had live statistics (vs. static
	// estimates).
	Profiled int `json:"profiled"`
	// Policy is the SLO policy that picked the operating point
	// ("balanced", "latency-first", "cost-first", "receiver-weak").
	Policy string `json:"policy,omitempty"`
	// Front is the Pareto front the selection chose from: the
	// non-dominated candidate cuts plus the pinned balanced min-cut point,
	// sorted by bytes then latency. A front of size 1 is degenerate — the
	// chosen point sits alone, so every policy collapses to the same plan.
	Front []FrontPointStatus `json:"front,omitempty"`
	// Chosen indexes the Front entry the policy selected.
	Chosen int `json:"chosen,omitempty"`
	// Env is the environment this selection priced costs under — the
	// measured environment when link estimation is feeding the unit, the
	// configured one otherwise.
	Env *EnvStatus `json:"env,omitempty"`
	// Suppressed reports that flip hysteresis overrode the policy's
	// preference and kept the incumbent cut.
	Suppressed bool `json:"suppressed,omitempty"`
	// PendingCut is the challenger cut currently building a confirmation
	// streak (absent when none).
	PendingCut []int32 `json:"pending_cut,omitempty"`
	// PendingStreak is how many consecutive selections PendingCut has
	// beaten the incumbent by the margin.
	PendingStreak int `json:"pending_streak,omitempty"`
	// FlipsSuppressed is the unit's cumulative suppressed-flip count.
	FlipsSuppressed uint64 `json:"flips_suppressed,omitempty"`
	// Complete reports that the candidate-cut enumeration behind the
	// selection was complete, so the balanced point is the cheapest
	// enumerated cut. False means the enumeration stopped at the
	// candidate cap and a max-flow priced the balanced point.
	Complete bool `json:"complete"`
}

// EnvStatus is the costmodel.Environment a selection priced against, as
// surfaced through /debug/split.
type EnvStatus struct {
	// SenderSpeed / ReceiverSpeed are processing rates in work units/ms.
	SenderSpeed   float64 `json:"sender_speed"`
	ReceiverSpeed float64 `json:"receiver_speed"`
	// Bandwidth is the link bandwidth in bytes/ms.
	Bandwidth float64 `json:"bandwidth"`
	// LatencyMS is the one-way link latency in milliseconds.
	LatencyMS float64 `json:"latency_ms"`
}

// FrontPointStatus is one operating point of the Pareto front as surfaced
// through /debug/split: the candidate cut and its cost vector.
type FrontPointStatus struct {
	// Cut is the candidate split set (sorted PSE ids).
	Cut []int32 `json:"cut"`
	// Bytes is the expected continuation bytes on the wire per message.
	Bytes float64 `json:"bytes"`
	// LatencyMS is the expected end-to-end latency estimate (ms).
	LatencyMS float64 `json:"latency_ms"`
	// SenderWork / ReceiverWork are the expected per-message work units on
	// each side of the cut.
	SenderWork   float64 `json:"sender_work"`
	ReceiverWork float64 `json:"receiver_work"`
	// FailureRate is the expected faults per message at this cut.
	FailureRate float64 `json:"failure_rate"`
	// CutValue is the scalar capacity of the cut under the channel's cost
	// model.
	CutValue int64 `json:"cut_value"`
	// Balanced marks the scalar min-cut's (pinned) point.
	Balanced bool `json:"balanced,omitempty"`
	// Chosen marks the point the active policy selected.
	Chosen bool `json:"chosen,omitempty"`
}
