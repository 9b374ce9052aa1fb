// Package obsv is the observability layer of the Method Partitioning
// runtime: a bounded, lock-cheap trace of the split lifecycle plus a
// pull-based metrics surface, built on the standard library only.
//
// The paper's premise (§2.5, §4) is that the runtime watches itself —
// per-PSE profiling feeds a min-cut that re-picks the split — but the
// internal signals driving those decisions (profiled costs, breaker
// state, rejected plans) are otherwise invisible to an operator. This
// package makes the loop auditable without changing it:
//
//   - Tracer is a ring-buffered structured event stream. Endpoints emit
//     one typed Event per lifecycle step (modulation, demodulation,
//     feedback merge, min-cut run, plan flip, breaker transition, NACK,
//     dead-letter quarantine), each carrying the channel, subscription,
//     PSE id, plan version and a monotonic timestamp. Tracing is off by
//     default; a nil or disabled Tracer costs one predicted branch per
//     call site and zero allocations.
//
//   - Histogram is a fixed-bucket, allocation-free histogram for hot-path
//     measurements (per-PSE latency, continuation bytes, interpreter
//     work).
//
//   - Registry gathers Collectors — anything that can enumerate metric
//     Samples — and writes them in Prometheus text format or JSON.
//
//   - DebugServer is an opt-in net/http listener exposing /metrics,
//     /metrics.json, /debug/split (the live split table: UG/PSE stats,
//     current plan, breaker states, last min-cut explanation),
//     /debug/trace and the Go runtime profiles under /debug/pprof/ (on
//     its own mux only: nothing is registered on http.DefaultServeMux).
//
// The event-system glue lives in internal/jecho (Publisher and Subscriber
// implement Collector and provide Status snapshots); this package holds
// only the neutral mechanism and schema, so any future endpoint (brokers,
// relays) can reuse it. Operator-facing documentation for every metric,
// event type and route is in OBSERVABILITY.md at the repository root.
package obsv

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// EventKind types a trace event. The zero value is invalid, so an
// uninitialised Event is recognisable in dumps.
type EventKind uint8

// Trace event kinds, one per observable step of the split lifecycle.
const (
	// EvPublish: the modulator produced a wire message for one event
	// (Detail is "raw" or "cont"; PSE is the split edge taken, Bytes the
	// wire size, Work the sender-side work, Dur the modulation latency).
	EvPublish EventKind = iota + 1
	// EvSuppress: the modulator filtered the event at the sender; nothing
	// crossed the wire.
	EvSuppress
	// EvModFault: modulation failed (Detail carries the fault class and
	// error).
	EvModFault
	// EvDemod: the demodulator completed a message (PSE is the split edge
	// it arrived on, Work the receiver-side work, Dur the demodulation
	// latency).
	EvDemod
	// EvDemodFault: demodulation failed (Detail carries the fault class
	// and error; EventSeq the failing event when attributable).
	EvDemodFault
	// EvFeedback: a profiling feedback frame was merged at the receiver
	// (Plan is the publisher's active plan version it carried, Value the
	// number of per-PSE stat entries).
	EvFeedback
	// EvMinCut: the reconfiguration unit ran its min-cut (Plan is the
	// version selected, Value the cut capacity, Detail the chosen split
	// set and any tripped PSEs priced out of it).
	EvMinCut
	// EvPlanFlip: a plan whose split set differs from the previous one was
	// installed or pushed (Plan is the new version, Detail the new split
	// set).
	EvPlanFlip
	// EvPlanStale: an inbound plan was rejected because its version did
	// not advance past the active plan's.
	EvPlanStale
	// EvPlanBlocked: an inbound plan was dropped because it re-selected a
	// PSE whose breaker is open (PSE names the blocked edge).
	EvPlanBlocked
	// EvBreaker: a per-PSE circuit breaker changed state (Detail is the
	// new state: "open", "half-open" or "closed").
	EvBreaker
	// EvNackSent: the subscriber reported a demodulation failure upstream
	// (PSE is the blamed split edge, Detail the fault class).
	EvNackSent
	// EvNackRecv: the publisher received a failure report from a
	// subscriber (PSE is the blamed split edge, Detail the fault class).
	EvNackRecv
	// EvDeadLetter: a poison message was quarantined in the dead-letter
	// ring (Bytes is the retained frame size, Detail the fault class).
	EvDeadLetter
	// EvReplay: the publisher re-sent a range of sequenced events from its
	// replay ring — a retransmit request, an idle-tail repair or a
	// reconnect resume (Detail is the "from..to" sequence range).
	EvReplay
	// EvDataLoss: a range of sequenced events was declared unrecoverable —
	// the replay ring evicted them before the gap could be repaired
	// (Detail is the "from..to" sequence range; Value the event count).
	EvDataLoss
	// EvStreamReset: the subscriber observed a new publisher-side stream
	// epoch and discarded its old-stream dedup state — the old stream's
	// unreceived tail is unrecoverable and its size unknowable (Detail is
	// the "old->new" epoch transition).
	EvStreamReset
)

// String names the kind for dumps and logs.
func (k EventKind) String() string {
	switch k {
	case EvPublish:
		return "publish"
	case EvSuppress:
		return "suppress"
	case EvModFault:
		return "mod-fault"
	case EvDemod:
		return "demod"
	case EvDemodFault:
		return "demod-fault"
	case EvFeedback:
		return "feedback"
	case EvMinCut:
		return "min-cut"
	case EvPlanFlip:
		return "plan-flip"
	case EvPlanStale:
		return "plan-stale"
	case EvPlanBlocked:
		return "plan-blocked"
	case EvBreaker:
		return "breaker"
	case EvNackSent:
		return "nack-sent"
	case EvNackRecv:
		return "nack-recv"
	case EvDeadLetter:
		return "dead-letter"
	case EvReplay:
		return "replay"
	case EvDataLoss:
		return "data-loss"
	case EvStreamReset:
		return "stream-reset"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MarshalJSON writes the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// NoPSE marks an event not attributable to a split edge (PSE ids are
// dense and non-negative; the synthetic raw PSE is 0).
const NoPSE int32 = -1

// Event is one structured trace record. Fields not meaningful for a kind
// stay zero (NoPSE for PSE); the flat shape keeps ring slots
// allocation-free to overwrite and one line of JSON to dump.
type Event struct {
	// Seq is the tracer-assigned sequence number (1-based, gap-free; gaps
	// in a subscription stream mean the subscriber fell behind).
	Seq uint64 `json:"seq"`
	// At is the monotonic time of the event, in nanoseconds since the
	// tracer started.
	At int64 `json:"at_ns"`
	// Kind types the event.
	Kind EventKind `json:"kind"`
	// Channel is the event channel the subscription is attached to.
	Channel string `json:"channel,omitempty"`
	// Sub identifies the endpoint: the publisher-assigned subscription id
	// on the sender side, the subscriber name on the receiver side.
	Sub string `json:"sub,omitempty"`
	// PSE is the split edge the event concerns (NoPSE when not
	// attributable).
	PSE int32 `json:"pse"`
	// Plan is the partitioning plan version in force or being installed.
	Plan uint64 `json:"plan,omitempty"`
	// EventSeq is the wire sequence number of the message concerned.
	EventSeq uint64 `json:"event_seq,omitempty"`
	// Bytes is the kind's byte measure (wire size, retained frame size).
	Bytes int64 `json:"bytes,omitempty"`
	// Work is the kind's work measure (interpreter work units, or the cut
	// capacity for EvMinCut via Value).
	Work int64 `json:"work,omitempty"`
	// Dur is the kind's latency measure in nanoseconds (modulation or
	// demodulation time).
	Dur int64 `json:"dur_ns,omitempty"`
	// Value is a kind-specific number (min-cut capacity, feedback entry
	// count).
	Value int64 `json:"value,omitempty"`
	// Detail is a kind-specific short string (fault class, breaker state,
	// split set). Emitters only format it when the tracer is enabled.
	Detail string `json:"detail,omitempty"`
}

// WriteJSON writes the event as one JSON line.
func (e Event) WriteJSON(w io.Writer) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// now is the monotonic clock used by the tracer, injectable for tests.
var now = time.Now
