package jecho

import (
	"fmt"
	"strconv"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/linkest"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/reconfig"
)

// This file is the observability glue between the event system and
// internal/obsv: per-PSE histograms fed from the hot paths, Collector
// implementations for Publisher and Subscriber, the /debug/split status
// snapshots, and the helpers that translate lifecycle steps into trace
// events. The mechanism (Tracer, Histogram, Registry) lives in obsv; this
// file decides *what* the event system measures and emits.

// pseHistograms holds one latency/bytes/work histogram triple per PSE of a
// compiled handler. Both sides use the same shape: on the publisher the
// triple measures modulation latency, wire bytes produced and sender-side
// work; on the subscriber, demodulation latency, frame bytes consumed and
// receiver-side work. Observing is allocation-free, so the histograms are
// always on.
type pseHistograms struct {
	latency []*obsv.Histogram
	bytes   []*obsv.Histogram
	work    []*obsv.Histogram
}

func newPSEHistograms(n int) *pseHistograms {
	h := &pseHistograms{
		latency: make([]*obsv.Histogram, n),
		bytes:   make([]*obsv.Histogram, n),
		work:    make([]*obsv.Histogram, n),
	}
	for i := 0; i < n; i++ {
		h.latency[i] = obsv.NewHistogram(obsv.LatencyBuckets)
		h.bytes[i] = obsv.NewHistogram(obsv.SizeBuckets)
		h.work[i] = obsv.NewHistogram(obsv.WorkBuckets)
	}
	return h
}

// batchHistograms measures the shape of the batching path on one
// subscription: how many events each wire frame carried and how full the
// BatchBytes budget was when it left. Nil (batching off, or a v3 peer)
// costs nothing — observe is a no-op.
type batchHistograms struct {
	entries *obsv.Histogram
	fill    *obsv.Histogram
}

// Batch shape buckets: entry counts are small powers of two (a batch
// rarely exceeds the queue depth); fill is a ratio in [0, 1+] — the last
// bucket catches batches whose final entry overshot the budget.
var (
	batchEntryBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}
	batchFillBuckets  = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}
)

func newBatchHistograms() *batchHistograms {
	return &batchHistograms{
		entries: obsv.NewHistogram(batchEntryBuckets),
		fill:    obsv.NewHistogram(batchFillBuckets),
	}
}

// observe records one departed event frame: n entries totalling total
// payload bytes against a budget of max.
func (b *batchHistograms) observe(n, total, max int) {
	if b == nil {
		return
	}
	b.entries.Observe(float64(n))
	if max > 0 {
		b.fill.Observe(float64(total) / float64(max))
	}
}

// observe records one message against its split PSE. Out-of-range ids
// (ForcedSplit, UnattributedPSE) are dropped — they name no table row.
func (h *pseHistograms) observe(pse int32, dur time.Duration, bytes, work int64) {
	if h == nil || pse < 0 || int(pse) >= len(h.latency) {
		return
	}
	h.latency[pse].Observe(dur.Seconds())
	if bytes > 0 {
		h.bytes[pse].Observe(float64(bytes))
	}
	h.work[pse].Observe(float64(work))
}

// observePublish records one successful modulation: histograms
// unconditionally, a trace event only when the tracer is enabled. The
// disabled-tracer cost — one histogram observe plus one atomic load — is
// testable in isolation (it must stay at zero allocations per event; see
// obs_alloc_test.go). publishClass observes the class histograms once per
// event but emits one trace event per member (tracePublish), so
// trace-derived per-subscriber breakdowns keep working under class
// sharing.
func observePublish(tr *obsv.Tracer, h *pseHistograms, channel, sub string, plan uint64, out *partition.Output, dur time.Duration) {
	h.observe(out.SplitPSE, dur, out.WireBytes, out.ModWork)
	tracePublish(tr, channel, sub, plan, out, dur)
}

// tracePublish emits the EvPublish/EvSuppress event for one (member,
// modulation) pair. No-op (one atomic load) when the tracer is disabled.
func tracePublish(tr *obsv.Tracer, channel, sub string, plan uint64, out *partition.Output, dur time.Duration) {
	if !tr.Enabled() {
		return
	}
	ev := obsv.Event{
		Kind:    obsv.EvPublish,
		Channel: channel,
		Sub:     sub,
		PSE:     out.SplitPSE,
		Plan:    plan,
		Bytes:   out.WireBytes,
		Work:    out.ModWork,
		Dur:     dur.Nanoseconds(),
	}
	switch {
	case out.Suppressed:
		ev.Kind = obsv.EvSuppress
	case out.Raw != nil:
		ev.EventSeq = out.Raw.Seq
		ev.Detail = "raw"
	default:
		ev.EventSeq = out.Cont.Seq
		ev.Detail = "cont"
	}
	tr.Emit(ev)
}

// observeDemod records one completed demodulation, mirroring
// observePublish on the receiver side.
func observeDemod(tr *obsv.Tracer, h *pseHistograms, channel, sub string, seq uint64, pse int32, frameBytes, work int64, dur time.Duration) {
	h.observe(pse, dur, frameBytes, work)
	if !tr.Enabled() {
		return
	}
	tr.Emit(obsv.Event{
		Kind:     obsv.EvDemod,
		Channel:  channel,
		Sub:      sub,
		PSE:      pse,
		EventSeq: seq,
		Bytes:    frameBytes,
		Work:     work,
		Dur:      dur.Nanoseconds(),
	})
}

// traceMinCut emits the EvMinCut for a completed plan selection, read from
// the unit's explanation snapshot. Detail formatting only runs when the
// tracer is enabled.
func traceMinCut(tr *obsv.Tracer, channel, sub string, u *reconfig.Unit) {
	if !tr.Enabled() {
		return
	}
	ex := u.LastExplanation()
	if ex == nil {
		return
	}
	tr.Emit(obsv.Event{
		Kind:    obsv.EvMinCut,
		Channel: channel,
		Sub:     sub,
		PSE:     obsv.NoPSE,
		Plan:    ex.Version,
		Value:   ex.CutValue,
		Detail:  fmt.Sprintf("cut=%v tripped=%v profiled=%d", ex.Cut, ex.Tripped, ex.Profiled),
	})
}

// tracePlanFlip emits the EvPlanFlip for an installed plan whose split set
// changed.
func tracePlanFlip(tr *obsv.Tracer, channel, sub string, version uint64, split []int32) {
	if !tr.Enabled() {
		return
	}
	tr.Emit(obsv.Event{
		Kind:    obsv.EvPlanFlip,
		Channel: channel,
		Sub:     sub,
		PSE:     obsv.NoPSE,
		Plan:    version,
		Detail:  fmt.Sprintf("split=%v", split),
	})
}

// traceReplay emits the EvReplay for a range of sequenced events re-sent
// from the replay ring.
func traceReplay(tr *obsv.Tracer, channel, sub string, from, to uint64) {
	if !tr.Enabled() {
		return
	}
	tr.Emit(obsv.Event{
		Kind:    obsv.EvReplay,
		Channel: channel,
		Sub:     sub,
		PSE:     obsv.NoPSE,
		Value:   int64(to - from + 1),
		Detail:  fmt.Sprintf("%d..%d", from, to),
	})
}

// traceDataLoss emits the EvDataLoss for a range of sequenced events
// declared unrecoverable — loss is loud on every surface: counter, trace
// event and log line.
func traceDataLoss(tr *obsv.Tracer, channel, sub string, from, to uint64) {
	if !tr.Enabled() {
		return
	}
	tr.Emit(obsv.Event{
		Kind:    obsv.EvDataLoss,
		Channel: channel,
		Sub:     sub,
		PSE:     obsv.NoPSE,
		Value:   int64(to - from + 1),
		Detail:  fmt.Sprintf("%d..%d", from, to),
	})
}

// traceStreamReset emits the EvStreamReset for a discarded delivery
// stream: the publisher opened a fresh epoch, so the receiver dropped its
// old-stream dedup state. The old tail's size is unknowable, so the event
// carries no count — the reset itself is the loud signal.
func traceStreamReset(tr *obsv.Tracer, channel, sub string, epoch uint64) {
	if !tr.Enabled() {
		return
	}
	tr.Emit(obsv.Event{
		Kind:    obsv.EvStreamReset,
		Channel: channel,
		Sub:     sub,
		PSE:     obsv.NoPSE,
		Detail:  fmt.Sprintf("epoch=%d", epoch),
	})
}

// breakerObserver adapts breaker transitions to EvBreaker events. The
// callback runs under the breaker mutex; Tracer.Emit takes only the tracer
// mutex, so the lock order is strictly breaker → tracer and cannot cycle.
func breakerObserver(tr *obsv.Tracer, channel string, sub func() string) func(id int32, state string) {
	return func(id int32, state string) {
		tr.Emit(obsv.Event{
			Kind:    obsv.EvBreaker,
			Channel: channel,
			Sub:     sub(),
			PSE:     id,
			Detail:  state,
		})
	}
}

// channelCounterDefs maps every ChannelMetrics field to a metric family.
// The same table drives Prometheus exposition (Collect) and the
// /debug/split counter map, so the two surfaces cannot drift apart.
var channelCounterDefs = []struct {
	name string
	help string
	get  func(ChannelMetrics) uint64
}{
	{"methodpart_channel_published_total", "Events modulated (publisher) or demodulated to completion (subscriber).", func(m ChannelMetrics) uint64 { return m.Published }},
	{"methodpart_channel_suppressed_total", "Events filtered at the sender by trivial-continuation suppression.", func(m ChannelMetrics) uint64 { return m.Suppressed }},
	{"methodpart_channel_enqueued_total", "Frames accepted into the outbound send queue.", func(m ChannelMetrics) uint64 { return m.Enqueued }},
	{"methodpart_channel_dropped_total", "Frames discarded by the overflow policy.", func(m ChannelMetrics) uint64 { return m.Dropped }},
	{"methodpart_channel_bytes_on_wire_total", "Event-frame bytes sent (publisher) or received (subscriber), including framing.", func(m ChannelMetrics) uint64 { return m.BytesOnWire }},
	{"methodpart_channel_control_bytes_on_wire_total", "Control-frame bytes (heartbeats, feedback, plans, NACKs), including framing.", func(m ChannelMetrics) uint64 { return m.ControlBytesOnWire }},
	{"methodpart_channel_bytes_saved_total", "Bytes modulation kept off the wire (suppression and continuations).", func(m ChannelMetrics) uint64 { return m.BytesSaved }},
	{"methodpart_channel_events_sent_total", "Event frames that reached the wire, alone or inside a batch.", func(m ChannelMetrics) uint64 { return m.EventsSent }},
	{"methodpart_channel_batches_sent_total", "Batch wire frames written (single-event frames go unwrapped).", func(m ChannelMetrics) uint64 { return m.BatchesSent }},
	{"methodpart_channel_batched_events_total", "Events that traveled inside a batch frame.", func(m ChannelMetrics) uint64 { return m.BatchedEvents }},
	{"methodpart_channel_batches_received_total", "Batch frames unpacked by the subscriber.", func(m ChannelMetrics) uint64 { return m.BatchesReceived }},
	{"methodpart_channel_feedback_sent_total", "Profiling feedback frames that reached the wire.", func(m ChannelMetrics) uint64 { return m.FeedbackSent }},
	{"methodpart_channel_feedback_coalesced_total", "Feedback frames superseded before sending (slow-peer coalescing).", func(m ChannelMetrics) uint64 { return m.FeedbackCoalesced }},
	{"methodpart_channel_plan_flips_total", "Plan installations that changed the split set.", func(m ChannelMetrics) uint64 { return m.PlanFlips }},
	{"methodpart_channel_send_errors_total", "Transport write failures.", func(m ChannelMetrics) uint64 { return m.SendErrors }},
	{"methodpart_channel_heartbeats_sent_total", "Liveness frames written while the channel was idle.", func(m ChannelMetrics) uint64 { return m.HeartbeatsSent }},
	{"methodpart_channel_heartbeats_received_total", "Liveness frames received from the peer.", func(m ChannelMetrics) uint64 { return m.HeartbeatsReceived }},
	{"methodpart_channel_reconnects_total", "Successful automatic resubscriptions after a lost connection.", func(m ChannelMetrics) uint64 { return m.Reconnects }},
	{"methodpart_channel_decode_failures_total", "Inbound frames rejected by wire decoding.", func(m ChannelMetrics) uint64 { return m.DecodeFailures }},
	{"methodpart_channel_demod_failures_total", "Decoded messages the demodulator failed on.", func(m ChannelMetrics) uint64 { return m.DemodFailures }},
	{"methodpart_channel_mod_failures_total", "Events the modulator failed on.", func(m ChannelMetrics) uint64 { return m.ModFailures }},
	{"methodpart_channel_nacks_sent_total", "Demod-failure reports pushed upstream.", func(m ChannelMetrics) uint64 { return m.NacksSent }},
	{"methodpart_channel_nacks_received_total", "Demod-failure reports received from peers.", func(m ChannelMetrics) uint64 { return m.NacksReceived }},
	{"methodpart_channel_dead_lettered_total", "Messages quarantined in the dead-letter ring.", func(m ChannelMetrics) uint64 { return m.DeadLettered }},
	{"methodpart_channel_breaker_trips_total", "Circuit-breaker transitions to open.", func(m ChannelMetrics) uint64 { return m.BreakerTrips }},
	{"methodpart_channel_acks_sent_total", "Cumulative delivery acks written (standalone and heartbeat-piggybacked).", func(m ChannelMetrics) uint64 { return m.AcksSent }},
	{"methodpart_channel_acks_received_total", "Cumulative delivery acks received from the peer.", func(m ChannelMetrics) uint64 { return m.AcksReceived }},
	{"methodpart_channel_retransmit_requests_sent_total", "Gap-repair retransmit requests pushed upstream.", func(m ChannelMetrics) uint64 { return m.RetransmitRequestsSent }},
	{"methodpart_channel_retransmit_requests_received_total", "Gap-repair retransmit requests received from peers.", func(m ChannelMetrics) uint64 { return m.RetransmitRequestsReceived }},
	{"methodpart_replayed_total", "Event frames re-sent from the replay ring (retransmissions and reconnect resumes).", func(m ChannelMetrics) uint64 { return m.Replayed }},
	{"methodpart_channel_ring_evictions_total", "Unacked frames evicted from the replay ring to hold its byte budget.", func(m ChannelMetrics) uint64 { return m.RingEvictions }},
	{"methodpart_channel_duplicates_dropped_total", "Sequenced events absorbed by subscriber-side dedup before the handler.", func(m ChannelMetrics) uint64 { return m.DuplicatesDropped }},
	{"methodpart_data_loss_total", "Sequenced events declared unrecoverable — loud, exact, never silent.", func(m ChannelMetrics) uint64 { return m.DataLoss }},
	{"methodpart_channel_acks_clamped_total", "Inbound acks claiming a seq beyond anything staged, clamped instead of releasing unsent entries.", func(m ChannelMetrics) uint64 { return m.AcksClamped }},
	{"methodpart_channel_stream_resets_total", "Delivery-stream restarts observed via a changed StreamStart epoch; dedup state was discarded.", func(m ChannelMetrics) uint64 { return m.StreamResets }},
	{"methodpart_channel_dead_letters_redelivered_total", "Quarantined messages successfully re-demodulated by RedeliverDeadLetters.", func(m ChannelMetrics) uint64 { return m.DeadLettersRedelivered }},
	{"methodpart_channel_dead_letters_requarantined_total", "Redelivery attempts that failed again and returned to quarantine.", func(m ChannelMetrics) uint64 { return m.DeadLettersRequarantined }},
}

// Per-PSE histogram family names and help strings.
const (
	pseLatencyName = "methodpart_pse_latency_seconds"
	pseLatencyHelp = "Per-split-PSE processing latency: modulation time on the publisher, demodulation time on the subscriber."
	pseBytesName   = "methodpart_pse_bytes"
	pseBytesHelp   = "Per-split-PSE wire bytes: frame produced on the publisher, frame consumed on the subscriber."
	pseWorkName    = "methodpart_pse_work_units"
	pseWorkHelp    = "Per-split-PSE interpreter work spent on this side of the split."
)

// Batch histogram family names and help strings.
const (
	batchEntriesName = "methodpart_batch_entries"
	batchEntriesHelp = "Events carried per outbound event wire frame (1 = sent unwrapped)."
	batchFillName    = "methodpart_batch_fill_ratio"
	batchFillHelp    = "Coalesced payload bytes over the BatchBytes budget per outbound event frame."
)

// emitChannelSamples renders one endpoint's counters and histograms.
func emitChannelSamples(emit func(obsv.Sample), role, channel, sub string, m ChannelMetrics, h *pseHistograms, bh *batchHistograms) {
	labels := []obsv.Label{
		{Name: "role", Value: role},
		{Name: "channel", Value: channel},
		{Name: "sub", Value: sub},
	}
	for _, def := range channelCounterDefs {
		emit(obsv.Sample{Name: def.name, Type: obsv.CounterType, Help: def.help, Labels: labels, Value: float64(def.get(m))})
	}
	emit(obsv.Sample{
		Name: "methodpart_channel_queue_high_water", Type: obsv.GaugeType,
		Help:   "Maximum outbound queue depth observed.",
		Labels: labels, Value: float64(m.QueueHighWater),
	})
	if bh != nil {
		if ent := bh.entries.Snapshot(); ent.Count > 0 {
			fill := bh.fill.Snapshot()
			emit(obsv.Sample{Name: batchEntriesName, Type: obsv.HistogramType, Help: batchEntriesHelp, Labels: labels, Hist: &ent})
			emit(obsv.Sample{Name: batchFillName, Type: obsv.HistogramType, Help: batchFillHelp, Labels: labels, Hist: &fill})
		}
	}
	if h == nil {
		return
	}
	for id := range h.latency {
		lat := h.latency[id].Snapshot()
		if lat.Count == 0 {
			continue
		}
		pl := append(append([]obsv.Label(nil), labels...), obsv.Label{Name: "pse", Value: strconv.Itoa(id)})
		by := h.bytes[id].Snapshot()
		wk := h.work[id].Snapshot()
		emit(obsv.Sample{Name: pseLatencyName, Type: obsv.HistogramType, Help: pseLatencyHelp, Labels: pl, Hist: &lat})
		emit(obsv.Sample{Name: pseBytesName, Type: obsv.HistogramType, Help: pseBytesHelp, Labels: pl, Hist: &by})
		emit(obsv.Sample{Name: pseWorkName, Type: obsv.HistogramType, Help: pseWorkHelp, Labels: pl, Hist: &wk})
	}
}

// counterMap renders the ChannelMetrics snapshot as the /debug/split
// counter map, keyed by metric family name.
func counterMap(m ChannelMetrics) map[string]uint64 {
	out := make(map[string]uint64, len(channelCounterDefs)+1)
	for _, def := range channelCounterDefs {
		out[def.name] = def.get(m)
	}
	out["methodpart_channel_queue_high_water"] = m.QueueHighWater
	return out
}

// pseStatusTable builds the live UG/PSE table for /debug/split: the
// handler's static edge structure joined with the active plan's flags and
// the profiled statistics driving the next min-cut. plan may be nil
// (before any plan is installed).
func pseStatusTable(c *partition.Compiled, plan *partition.Plan, stats map[int32]costmodel.Stat) []obsv.PSEStatus {
	out := make([]obsv.PSEStatus, 0, c.NumPSEs())
	for i := range c.PSEs {
		pse := &c.PSEs[i]
		ps := obsv.PSEStatus{
			ID:   pse.ID,
			From: pse.Edge.From,
			To:   pse.Edge.To,
			Vars: append([]string(nil), pse.Vars...),
		}
		if plan != nil {
			ps.InSplit = plan.Split(pse.ID)
			ps.Profiled = plan.Profile(pse.ID)
		}
		if st, ok := stats[pse.ID]; ok {
			ps.Count = st.Count
			ps.Bytes = st.Bytes
			ps.ModWork = st.ModWork
			ps.DemodWork = st.DemodWork
			ps.Prob = st.Prob
			ps.Failures = st.Failures
		}
		out = append(out, ps)
	}
	return out
}

// statusBreakers snapshots the non-idle breaker states for /debug/split.
// Unlike Open/OpenIDs this is read-only: a PSE whose cooldown has elapsed
// is reported half-open without starting the probe.
func (b *pseBreaker) statusBreakers() []obsv.BreakerStatus {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	var ids []int32
	for id := range b.states {
		ids = append(ids, id)
	}
	ids = partition.SortedIDs(ids)
	var out []obsv.BreakerStatus
	for _, id := range ids {
		st := b.states[id]
		bs := obsv.BreakerStatus{PSE: id, State: "closed", WindowFailures: len(st.stamps)}
		switch {
		case st.probing:
			bs.State = "half-open"
		case !st.openUntil.IsZero() && now.Before(st.openUntil):
			bs.State = "open"
			bs.OpenRemainingMS = st.openUntil.Sub(now).Milliseconds()
		case !st.openUntil.IsZero():
			// Cooldown elapsed but no Open call has flipped it yet; the next
			// eligibility check will start the half-open probe.
			bs.State = "half-open"
		}
		if bs.State == "closed" && bs.WindowFailures == 0 {
			continue
		}
		out = append(out, bs)
	}
	return out
}

// minCutStatus converts a reconfiguration unit's explanation for
// /debug/split (nil when the unit has not selected a plan yet).
func minCutStatus(u *reconfig.Unit) *obsv.MinCutStatus {
	ex := u.LastExplanation()
	if ex == nil {
		return nil
	}
	caps := make(map[int32]int64, len(ex.Capacities))
	for id, c := range ex.Capacities {
		caps[id] = c
	}
	ms := &obsv.MinCutStatus{
		Version:    ex.Version,
		Cut:        append([]int32(nil), ex.Cut...),
		CutValue:   ex.CutValue,
		Tripped:    append([]int32(nil), ex.Tripped...),
		Capacities: caps,
		Profiled:   ex.Profiled,
		Policy:     ex.Policy.String(),
		Chosen:     ex.Chosen,
		Env: &obsv.EnvStatus{
			SenderSpeed:   ex.Env.SenderSpeed,
			ReceiverSpeed: ex.Env.ReceiverSpeed,
			Bandwidth:     ex.Env.Bandwidth,
			LatencyMS:     ex.Env.LatencyMS,
		},
		Suppressed:      ex.Suppressed,
		PendingCut:      append([]int32(nil), ex.PendingCut...),
		PendingStreak:   ex.PendingStreak,
		FlipsSuppressed: ex.FlipsSuppressed,
	}
	for _, fp := range ex.Front {
		ms.Front = append(ms.Front, obsv.FrontPointStatus{
			Cut:          append([]int32(nil), fp.Cut...),
			Bytes:        fp.Vec.Bytes,
			LatencyMS:    fp.Vec.LatencyMS,
			SenderWork:   fp.Vec.SenderWork,
			ReceiverWork: fp.Vec.ReceiverWork,
			FailureRate:  fp.Vec.FailureRate,
			CutValue:     fp.CutValue,
			Balanced:     fp.Balanced,
			Chosen:       fp.Chosen,
		})
	}
	return ms
}

// emitParetoSamples renders one reconfiguration unit's Pareto-selection
// metrics: the size of the last front (gauge; 1 means a degenerate front
// where every policy collapses to the same plan) and the cumulative count
// of selections whose chosen cut changed, labelled by the active policy.
// No-op before the unit's first selection.
func emitParetoSamples(emit func(obsv.Sample), role, channel, sub string, u *reconfig.Unit) {
	ex := u.LastExplanation()
	if ex == nil {
		return
	}
	labels := []obsv.Label{
		{Name: "role", Value: role},
		{Name: "channel", Value: channel},
		{Name: "sub", Value: sub},
	}
	emit(obsv.Sample{
		Name: "methodpart_pareto_front_size", Type: obsv.GaugeType,
		Help:   "Points on the last plan selection's Pareto front (1 = degenerate: every policy picks the same plan).",
		Labels: labels, Value: float64(len(ex.Front)),
	})
	policyLabels := append(append([]obsv.Label(nil), labels...), obsv.Label{Name: "policy", Value: ex.Policy.String()})
	emit(obsv.Sample{
		Name: "methodpart_policy_flips_total", Type: obsv.CounterType,
		Help:   "Plan selections whose chosen cut differed from the previous selection's, by active SLO policy.",
		Labels: policyLabels,
		Value:  float64(u.PolicyFlips()),
	})
	emit(obsv.Sample{
		Name: "methodpart_flips_suppressed_total", Type: obsv.CounterType,
		Help:   "Plan selections where the policy preferred a different cut but flip hysteresis kept the incumbent.",
		Labels: policyLabels,
		Value:  float64(u.FlipsSuppressed()),
	})
}

// emitLinkSamples renders one subscription's live link estimate: the
// smoothed RTT and effective bandwidth feeding the reconfiguration unit.
// No-op when link estimation is disabled. An estimator whose RTT gauge
// sits at 0 while heartbeats flow is broken (or the peer cannot echo).
func emitLinkSamples(emit func(obsv.Sample), role, channel, sub string, link *linkest.Estimator) {
	if link == nil {
		return
	}
	snap := link.Snapshot()
	labels := []obsv.Label{
		{Name: "role", Value: role},
		{Name: "channel", Value: channel},
		{Name: "sub", Value: sub},
	}
	emit(obsv.Sample{
		Name: "methodpart_link_rtt_ms", Type: obsv.GaugeType,
		Help:   "Smoothed round-trip time measured from heartbeat echoes, in milliseconds (0 until the first echo).",
		Labels: labels, Value: snap.RTTMillis,
	})
	emit(obsv.Sample{
		Name: "methodpart_link_bandwidth_bps", Type: obsv.GaugeType,
		Help:   "Smoothed effective link bandwidth from bytes-on-wire over wall time, in bytes per second.",
		Labels: labels, Value: snap.BandwidthBytesPerMS * 1000,
	})
}

// linkStatus converts an estimator snapshot for /debug/split (nil when
// link estimation is disabled).
func linkStatus(link *linkest.Estimator) *obsv.LinkStatus {
	if link == nil {
		return nil
	}
	snap := link.Snapshot()
	return &obsv.LinkStatus{
		RTTMS:               snap.RTTMillis,
		BandwidthBytesPerMS: snap.BandwidthBytesPerMS,
		RTTSamples:          snap.RTTSamples,
		BandwidthSamples:    snap.BandwidthSamples,
		Warm:                snap.RTTWarm || snap.BandwidthWarm,
	}
}

// Collect implements obsv.Collector over the publisher's live
// subscriptions: every ChannelMetrics counter plus the per-PSE histograms,
// labelled {role="publisher", channel, sub}, the fan-out sharing gauges
// and counters (class count, modulator runs, modulations saved) and the
// per-shard registry lock-contention counters.
func (p *Publisher) Collect(emit func(obsv.Sample)) {
	subs := p.reg.snapshot()
	classes := p.classes.snapshot()
	emit(obsv.Sample{
		Name: "methodpart_publisher_subscriptions", Type: obsv.GaugeType,
		Help:  "Live subscriptions on this publisher.",
		Value: float64(len(subs)),
	})
	emit(obsv.Sample{
		Name: "methodpart_plan_classes", Type: obsv.GaugeType,
		Help:  "Live plan-equivalence classes (one shared modulation per class).",
		Value: float64(len(classes)),
	})
	emit(obsv.Sample{
		Name: "methodpart_modulator_runs_total", Type: obsv.CounterType,
		Help:  "Class modulator invocations (one per event per class).",
		Value: float64(p.modRuns.Load()),
	})
	emit(obsv.Sample{
		Name: "methodpart_modulations_saved_total", Type: obsv.CounterType,
		Help:  "Per-subscriber modulator runs avoided by plan-equivalence class sharing.",
		Value: float64(p.modulationsSaved.Load()),
	})
	var compiledRuns int64
	for _, c := range classes {
		compiledRuns += c.class.mod.CompiledRuns()
	}
	emit(obsv.Sample{
		Name: "methodpart_compiled_runs_total", Type: obsv.CounterType,
		Help:   compiledRunsHelp,
		Labels: []obsv.Label{{Name: "role", Value: "publisher"}},
		Value:  float64(compiledRuns),
	})
	for i := range p.reg.shards {
		sh := &p.reg.shards[i]
		labels := []obsv.Label{{Name: "shard", Value: strconv.Itoa(i)}}
		emit(obsv.Sample{
			Name: "methodpart_registry_shard_lock_acquisitions_total", Type: obsv.CounterType,
			Help:   "Write-lock acquisitions on this subscriber-registry shard.",
			Labels: labels, Value: float64(sh.acquires.Load()),
		})
		emit(obsv.Sample{
			Name: "methodpart_registry_shard_lock_contended_total", Type: obsv.CounterType,
			Help:   "Write-lock acquisitions that found this shard's lock held.",
			Labels: labels, Value: float64(sh.contended.Load()),
		})
	}
	for _, s := range subs {
		c := s.class.Load()
		if c == nil {
			continue
		}
		emitChannelSamples(emit, "publisher", s.channel, s.id, s.metrics.snapshot(), c.hists, s.pipe.batch.hists)
		emitParetoSamples(emit, "publisher", s.channel, s.id, s.runit)
		emitLinkSamples(emit, "publisher", s.channel, s.id, s.link)
		if s.rel != nil {
			if occ := s.rel.occupancy.Snapshot(); occ.Count > 0 {
				emit(obsv.Sample{
					Name: "methodpart_replay_ring_bytes", Type: obsv.HistogramType,
					Help: "Replay-ring occupancy in retained payload bytes, sampled after every staged frame.",
					Labels: []obsv.Label{
						{Name: "role", Value: "publisher"},
						{Name: "channel", Value: s.channel},
						{Name: "sub", Value: s.id},
					},
					Hist: &occ,
				})
			}
		}
	}
}

// Status snapshots the publisher for /debug/split: one ChannelStatus per
// live subscription with its plan, UG/PSE table (from the subscription's
// plan-equivalence class), breaker states and the last degrade min-cut (if
// one ran), plus the publisher-level class-sharing figures.
func (p *Publisher) Status() obsv.EndpointStatus {
	subs := p.reg.snapshot()
	ep := obsv.EndpointStatus{
		Role:             "publisher",
		Name:             p.Addr(),
		PlanClasses:      p.PlanClasses(),
		ModulationsSaved: p.ModulationsSaved(),
	}
	for _, s := range subs {
		c := s.class.Load()
		if c == nil {
			continue
		}
		plan := c.mod.Plan()
		cs := obsv.ChannelStatus{
			ID:          s.id,
			Channel:     s.channel,
			Handler:     s.compiled.Prog.Name,
			PlanVersion: s.planVersion.Load(),
			Split:       append([]int32(nil), plan.SplitIDs()...),
			QueueLen:    len(s.pipe.queue),
			Metrics:     counterMap(s.metrics.snapshot()),
			PSEs:        pseStatusTable(s.compiled, plan, c.coll.Snapshot()),
			Breakers:    s.breaker.statusBreakers(),
			LastMinCut:  minCutStatus(s.runit),
			Link:        linkStatus(s.link),
		}
		ep.Channels = append(ep.Channels, cs)
	}
	sortChannels(ep.Channels)
	return ep
}

// compiledRunsHelp documents the engine counter emitted by both roles.
const compiledRunsHelp = "Messages executed on the closure-compiled engine (the difference from total runs executed on the stepping engine)."

// Collect implements obsv.Collector over the subscriber's half of the
// loop, labelled {role="subscriber", channel, sub}.
func (s *Subscriber) Collect(emit func(obsv.Sample)) {
	emitChannelSamples(emit, "subscriber", s.cfg.Channel, s.cfg.Name, s.metrics.snapshot(), s.hists, nil)
	emitParetoSamples(emit, "subscriber", s.cfg.Channel, s.cfg.Name, s.runit)
	emitLinkSamples(emit, "subscriber", s.cfg.Channel, s.cfg.Name, s.link)
	emit(obsv.Sample{
		Name: "methodpart_compiled_runs_total", Type: obsv.CounterType,
		Help: compiledRunsHelp,
		Labels: []obsv.Label{
			{Name: "role", Value: "subscriber"},
			{Name: "channel", Value: s.cfg.Channel},
			{Name: "sub", Value: s.cfg.Name},
		},
		Value: float64(s.demod.CompiledRuns()),
	})
}

// Status snapshots the subscriber for /debug/split: its profile plan,
// UG/PSE table with the merged (sender + receiver) statistics the next
// min-cut will see, breaker states and the last plan selection.
func (s *Subscriber) Status() obsv.EndpointStatus {
	plan := s.demod.ProfilePlan()
	cs := obsv.ChannelStatus{
		ID:       s.cfg.Name,
		Channel:  s.cfg.Channel,
		Handler:  s.compiled.Prog.Name,
		Metrics:  counterMap(s.metrics.snapshot()),
		PSEs:     pseStatusTable(s.compiled, plan, s.Stats()),
		Breakers: s.breaker.statusBreakers(),
	}
	if plan != nil {
		cs.PlanVersion = plan.Version()
		cs.Split = append([]int32(nil), plan.SplitIDs()...)
	}
	cs.LastMinCut = minCutStatus(s.runit)
	cs.Link = linkStatus(s.link)
	return obsv.EndpointStatus{
		Role:     "subscriber",
		Name:     s.cfg.Name,
		Channels: []obsv.ChannelStatus{cs},
	}
}

// sortChannels orders channel statuses by subscription id for stable
// output.
func sortChannels(cs []obsv.ChannelStatus) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].ID < cs[j-1].ID; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}
