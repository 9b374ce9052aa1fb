package jecho

import "sync/atomic"

// ChannelMetrics is a point-in-time snapshot of one event-channel
// endpoint's counters. The publisher keeps one per subscription (surfaced
// through Publisher.Subscriptions); the subscriber keeps one for its half
// of the loop (Subscriber.Metrics). Fields that do not apply to a side stay
// zero there: a subscriber never drops or suppresses, a publisher never
// counts plans it *received*.
type ChannelMetrics struct {
	// Published counts events pushed through the modulator (publisher) or
	// messages demodulated to completion (subscriber).
	Published uint64
	// Suppressed counts events the modulator filtered at the sender
	// (trivial-continuation suppression), so nothing crossed the wire.
	Suppressed uint64
	// Enqueued counts frames that entered the subscription's send queue:
	// appended to its log, or queued for replay when the session resumed.
	Enqueued uint64
	// Dropped counts frames this session never sent: refused by
	// DropNewest (those were never enqueued), skipped by DropOldest, still
	// queued when the session retired (a reliable log keeps them for the
	// next session's replay), or lost to a failed transport write.
	// Together with EventsSent this closes the accounting identity
	// Enqueued = EventsSent + Dropped, less DropNewest refusals, once the
	// pipeline is quiescent.
	Dropped uint64
	// QueueHighWater is the maximum outbound queue depth observed.
	QueueHighWater uint64
	// BytesOnWire counts event-frame bytes actually sent (publisher) or
	// received (subscriber), including framing overhead. Control traffic
	// (heartbeats, feedback, plans, NACKs) is counted separately in
	// ControlBytesOnWire so the bytes-saved ratio divides by event bytes
	// only; before the split, quiet channels skewed the ratio with
	// heartbeat bytes.
	BytesOnWire uint64
	// ControlBytesOnWire counts control-frame bytes (heartbeats, profiling
	// feedback, plans, NACKs) sent or received, including framing overhead.
	ControlBytesOnWire uint64
	// EventsSent counts event frames that reached the wire, whether alone
	// or packed inside a batch frame (publisher side). At quiescence
	// Enqueued = EventsSent + Dropped.
	EventsSent uint64
	// BatchesSent counts batch wire frames written; frames carrying a
	// single event go unwrapped and are not counted here.
	BatchesSent uint64
	// BatchedEvents counts events that traveled inside a batch frame, so
	// BatchedEvents/BatchesSent is the mean batch size.
	BatchedEvents uint64
	// BatchesReceived counts batch frames unpacked by the subscriber.
	BatchesReceived uint64
	// BytesSaved estimates bytes modulation kept off the wire: for a
	// suppressed event the whole raw payload, for a continuation the
	// difference between the raw event encoding and the continuation.
	BytesSaved uint64
	// FeedbackStaged counts profiling feedback frames handed to the send
	// pipeline; each ends sent, coalesced, in flight or pending
	// (SubscriptionInfo.FeedbackInFlight and FeedbackPending).
	FeedbackStaged uint64
	// FeedbackSent counts profiling feedback frames that reached the wire.
	FeedbackSent uint64
	// FeedbackCoalesced counts feedback frames superseded by a newer
	// snapshot before they could be sent (slow-peer coalescing).
	FeedbackCoalesced uint64
	// PlanFlips counts plan installations that changed the split set —
	// the paper's atomic flag flips (applied at the publisher, pushed at
	// the subscriber).
	PlanFlips uint64
	// SendErrors counts transport write failures (each retires the
	// subscription on the publisher side).
	SendErrors uint64
	// HeartbeatsSent counts liveness frames written while the channel was
	// otherwise idle.
	HeartbeatsSent uint64
	// HeartbeatsReceived counts liveness frames from the peer.
	HeartbeatsReceived uint64
	// Reconnects counts successful automatic resubscriptions after a lost
	// connection (subscriber side).
	Reconnects uint64
	// DecodeFailures counts inbound frames wire.Unmarshal rejected. These
	// were previously only logged; counting them makes silent drops
	// observable.
	DecodeFailures uint64
	// DemodFailures counts decoded messages the demodulator failed on
	// (subscriber side): restore errors, runtime faults, budget overruns.
	DemodFailures uint64
	// ModFailures counts events the modulator failed on (publisher side).
	ModFailures uint64
	// NacksSent counts demod-failure reports pushed upstream (subscriber).
	NacksSent uint64
	// NacksReceived counts demod-failure reports from peers (publisher).
	NacksReceived uint64
	// DeadLettered counts messages quarantined in the dead-letter ring.
	DeadLettered uint64
	// BreakerTrips counts circuit-breaker transitions to open — each one
	// excluded a PSE from the split set until its cooldown.
	BreakerTrips uint64
	// AcksSent counts cumulative delivery acks written (subscriber side),
	// standalone and heartbeat-piggybacked alike.
	AcksSent uint64
	// AcksReceived counts cumulative delivery acks from the peer
	// (publisher side).
	AcksReceived uint64
	// Replayed counts the replay frames a resumed session wrote: retained,
	// unacked frames re-sent after a reconnect (publisher side). A replay
	// entry DropOldest skips counts as DataLoss instead.
	Replayed uint64
	// RingEvictions counts sent, unacked frames the log released to stay
	// inside ReplayRingBytes. An evicted frame was already sent, so it
	// costs nothing unless the link is cut before the subscriber acks it;
	// the resume then declares it lost.
	RingEvictions uint64
	// DuplicatesDropped counts sequenced events the subscriber's dedup
	// absorbed before the handler saw them.
	DuplicatesDropped uint64
	// DataLoss counts sequenced events declared unrecoverable: seqs the
	// publisher skipped on a connection (an overflow eviction under
	// DropOldest, or a resume reaching past what the ring kept). The
	// subscriber counts genuinely-missing events on Lost notices; the
	// publisher counts each declared seq once. Loss is loud and exact —
	// never silent.
	DataLoss uint64
	// AcksClamped counts inbound cumulative acks claiming a seq beyond
	// anything sent (publisher side). Each is a corrupt or misbehaving
	// peer: the ack is clamped so it cannot release unsent log entries,
	// and counted here so the anomaly is visible.
	AcksClamped uint64
	// StreamResets counts at-least-once stream restarts the subscriber
	// observed via a changed StreamStart epoch (publisher restart, orphan
	// state evicted past its cap): dedup state was discarded so the fresh
	// stream delivers instead of being dropped as duplicates. The old
	// stream's undelivered tail is unrecoverable and unquantifiable, so it
	// is surfaced here rather than fabricated into DataLoss.
	StreamResets uint64
	// DeadLettersRedelivered counts quarantined messages successfully
	// re-demodulated by RedeliverDeadLetters.
	DeadLettersRedelivered uint64
	// DeadLettersRequarantined counts redelivery attempts that failed
	// again and went back to quarantine.
	DeadLettersRequarantined uint64
}

// channelMetrics is the live, atomically-updated form behind a
// ChannelMetrics snapshot. All fields are independent counters; snapshot
// stabilises reads across them so callers can compare fields of one
// snapshot with each other.
type channelMetrics struct {
	published         atomic.Uint64
	suppressed        atomic.Uint64
	enqueued          atomic.Uint64
	dropped           atomic.Uint64
	queueHighWater    atomic.Uint64
	bytesOnWire       atomic.Uint64
	controlBytes      atomic.Uint64
	eventsSent        atomic.Uint64
	batchesSent       atomic.Uint64
	batchedEvents     atomic.Uint64
	batchesRecv       atomic.Uint64
	bytesSaved        atomic.Uint64
	feedbackStaged    atomic.Uint64
	feedbackSent      atomic.Uint64
	feedbackCoalesced atomic.Uint64
	planFlips         atomic.Uint64
	sendErrors        atomic.Uint64
	heartbeatsSent    atomic.Uint64
	heartbeatsRecv    atomic.Uint64
	reconnects        atomic.Uint64
	decodeFailures    atomic.Uint64
	demodFailures     atomic.Uint64
	modFailures       atomic.Uint64
	nacksSent         atomic.Uint64
	nacksRecv         atomic.Uint64
	deadLettered      atomic.Uint64
	breakerTrips      atomic.Uint64
	acksSent          atomic.Uint64
	acksRecv          atomic.Uint64
	replayed          atomic.Uint64
	ringEvictions     atomic.Uint64
	duplicatesDropped atomic.Uint64
	dataLoss          atomic.Uint64
	acksClamped       atomic.Uint64
	streamResets      atomic.Uint64
	dlRedelivered     atomic.Uint64
	dlRequarantined   atomic.Uint64
}

// noteDepth records an observed queue depth, keeping the high-water mark.
func (m *channelMetrics) noteDepth(depth int) {
	d := uint64(depth)
	for {
		cur := m.queueHighWater.Load()
		if d <= cur || m.queueHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// snapshot materialises the counters as one consistent-enough cut: the
// field-by-field load is repeated until two consecutive passes agree (or a
// small retry budget runs out under sustained concurrent updates), so the
// common case — counters quiescent or slowly moving — yields a snapshot
// whose fields can be compared against each other (Published vs Suppressed,
// Enqueued vs Dropped) without tearing. Under continuous updates the
// residual skew is bounded by whatever was written during the final pass:
// a handful of single increments, never a partial write of one counter.
// Callers needing exact cross-field invariants must quiesce the endpoint
// first (tests do; dashboards don't care).
func (m *channelMetrics) snapshot() ChannelMetrics {
	cur := m.load()
	for i := 0; i < 3; i++ {
		again := m.load()
		if again == cur {
			return cur
		}
		cur = again
	}
	return cur
}

// load reads every counter once, in field order.
func (m *channelMetrics) load() ChannelMetrics {
	return ChannelMetrics{
		Published:          m.published.Load(),
		Suppressed:         m.suppressed.Load(),
		Enqueued:           m.enqueued.Load(),
		Dropped:            m.dropped.Load(),
		QueueHighWater:     m.queueHighWater.Load(),
		BytesOnWire:        m.bytesOnWire.Load(),
		ControlBytesOnWire: m.controlBytes.Load(),
		EventsSent:         m.eventsSent.Load(),
		BatchesSent:        m.batchesSent.Load(),
		BatchedEvents:      m.batchedEvents.Load(),
		BatchesReceived:    m.batchesRecv.Load(),
		BytesSaved:         m.bytesSaved.Load(),
		FeedbackStaged:     m.feedbackStaged.Load(),
		FeedbackSent:       m.feedbackSent.Load(),
		FeedbackCoalesced:  m.feedbackCoalesced.Load(),
		PlanFlips:          m.planFlips.Load(),
		SendErrors:         m.sendErrors.Load(),
		HeartbeatsSent:     m.heartbeatsSent.Load(),
		HeartbeatsReceived: m.heartbeatsRecv.Load(),
		Reconnects:         m.reconnects.Load(),
		DecodeFailures:     m.decodeFailures.Load(),
		DemodFailures:      m.demodFailures.Load(),
		ModFailures:        m.modFailures.Load(),
		NacksSent:          m.nacksSent.Load(),
		NacksReceived:      m.nacksRecv.Load(),
		DeadLettered:       m.deadLettered.Load(),
		BreakerTrips:       m.breakerTrips.Load(),

		AcksSent:                 m.acksSent.Load(),
		AcksReceived:             m.acksRecv.Load(),
		Replayed:                 m.replayed.Load(),
		RingEvictions:            m.ringEvictions.Load(),
		DuplicatesDropped:        m.duplicatesDropped.Load(),
		DataLoss:                 m.dataLoss.Load(),
		AcksClamped:              m.acksClamped.Load(),
		StreamResets:             m.streamResets.Load(),
		DeadLettersRedelivered:   m.dlRedelivered.Load(),
		DeadLettersRequarantined: m.dlRequarantined.Load(),
	}
}
