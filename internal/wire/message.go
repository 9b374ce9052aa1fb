package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"methodpart/internal/mir"
)

// ProtocolVersion is the wire protocol revision. A subscription handshake
// carries it; peers reject revisions they cannot speak rather than
// misinterpreting frames. Revision 2 added heartbeat control frames.
// Revision 3 added Nack frames (demodulation-failure reports) plus per-PSE
// failure counts and the sender's active plan version in Feedback.
// Revision 4 added Batch frames (multiple event frames coalesced into one
// wire frame). Revision 5 added the opt-in at-least-once delivery layer:
// SeqEvent envelopes, cumulative Ack frames, Retransmit requests, Lost
// notices, and the Reliability/ResumeSeq handshake fields (see
// reliable.go). Revision 6 added heartbeat echoes (Heartbeat.HasEcho /
// EchoSeq): either side reflects the peer's heartbeat Seq back so each
// endpoint measures round-trip time on its own clock, feeding the link
// estimator behind live environment refinement.
const ProtocolVersion uint32 = 6

// MinProtocolVersion is the oldest peer revision a current endpoint still
// interoperates with: a publisher speaking revision 6 downgrades to
// unbatched frames for a revision-3 subscriber, never sends reliability
// frames to a revision-4 one, and never solicits heartbeat echoes from a
// revision-5 one, since everything in revisions 4 through 6 is additive.
const MinProtocolVersion uint32 = 3

// BatchProtocolVersion is the first revision whose subscribers understand
// Batch frames; senders must not batch toward older peers.
const BatchProtocolVersion uint32 = 4

// EchoProtocolVersion is the first revision whose peers understand heartbeat
// echoes; endpoints must not solicit echoes from older peers (they would
// never answer, leaving the RTT estimator stuck at its default).
const EchoProtocolVersion uint32 = 6

// MsgType identifies a framed message.
type MsgType byte

// Message types exchanged between modulator (sender) and demodulator
// (receiver) sides.
const (
	// MsgRaw carries an unmodulated event (no split executed at sender).
	MsgRaw MsgType = iota + 1
	// MsgContinuation carries a remote continuation: split point + live vars.
	MsgContinuation
	// MsgFeedback carries profiling statistics to the reconfiguration unit.
	MsgFeedback
	// MsgPlan carries a new partitioning plan to the modulator side.
	MsgPlan
	// MsgSubscribe installs a handler (modulator) at the sender.
	MsgSubscribe
	// MsgHeartbeat is the liveness probe either side sends while idle, so
	// a silent peer is distinguishable from a silent channel.
	MsgHeartbeat
	// MsgNack reports a demodulation failure upstream (protocol revision
	// 3): the receiver could not complete a message and quarantined it.
	MsgNack
	// MsgBatch coalesces multiple event frames (MsgRaw/MsgContinuation)
	// into one wire frame (protocol revision 4), amortising per-frame
	// transport overhead on busy channels. Receivers unpack and process
	// each entry independently, so per-entry fault containment (NACKs,
	// dead-lettering) is preserved.
	MsgBatch
	// MsgAck is the cumulative delivery acknowledgement (protocol
	// revision 5): everything up to Ack.Seq arrived, release the replay
	// ring behind it.
	MsgAck
	// MsgRetransmit asks the publisher to replay a sequence range the
	// subscriber detected as a gap (protocol revision 5).
	MsgRetransmit
	// MsgLost declares a sequence range unrecoverable — evicted from the
	// replay ring before it could be repaired (protocol revision 5).
	MsgLost
	// MsgSeqEvent is the per-subscription delivery-sequence envelope
	// around one event frame (protocol revision 5).
	MsgSeqEvent
	// MsgStreamStart announces the delivery stream's epoch as the first
	// frame of an at-least-once subscription (protocol revision 5), so a
	// resuming subscriber can tell a continued stream from a fresh one.
	MsgStreamStart
)

// NackClass classifies why a message failed demodulation, so the sender's
// circuit breaker can distinguish a poisoned split point from a slow one.
type NackClass uint8

const (
	// NackUnknown is the zero value; a well-formed Nack never carries it.
	NackUnknown NackClass = iota
	// NackDecode: the message decoded at the frame level but failed
	// message-level validation (wrong handler, malformed payload).
	NackDecode
	// NackRestore: the continuation could not be restored (resume node out
	// of range, unusable variable snapshot).
	NackRestore
	// NackRuntime: the interpreter failed (runtime error or recovered
	// panic) while completing the message.
	NackRuntime
	// NackBudget: the receiver cancelled the message because it exceeded
	// the work or step budget (a runaway continuation).
	NackBudget
)

// String names the class for logs and tables.
func (c NackClass) String() string {
	switch c {
	case NackDecode:
		return "decode"
	case NackRestore:
		return "restore"
	case NackRuntime:
		return "runtime"
	case NackBudget:
		return "budget"
	default:
		return "unknown"
	}
}

// Nack reports one demodulation failure from the receiver back to the
// sender (protocol revision 3). The sender feeds it into the per-PSE
// circuit breaker: enough Nacks against one PSE trip it out of the
// eligible split set.
type Nack struct {
	// Handler names the handler whose message failed.
	Handler string
	// Seq is the failed message's per-subscription sequence number.
	Seq uint64
	// PSEID is the PSE the failed message was split at (RawPSEID for raw
	// events).
	PSEID int32
	// Class is the failure classification.
	Class NackClass
}

// Batch is one coalesced wire frame holding several event frames (protocol
// revision 4). Entries are complete Marshal outputs (tag byte included) of
// MsgRaw or MsgContinuation messages; control frames never batch, because
// feedback coalesces to-latest and heartbeats are only sent on idle
// channels. Decoded entries alias the frame they were unmarshalled from.
type Batch struct {
	// Entries holds the constituent event frames, in send order.
	Entries [][]byte
}

// Heartbeat trailing-flag bits: the byte after Seq is a bitmask naming the
// optional fields that follow, in bit order.
const (
	hbFlagAck  byte = 1 << 0 // AckSeq follows (revision 5)
	hbFlagEcho byte = 1 << 1 // EchoSeq follows (revision 6)
)

// Heartbeat is the liveness control message (protocol revision 2). Any
// received frame counts as liveness; heartbeats exist so liveness frames
// keep flowing when no events, feedback or plans are due.
type Heartbeat struct {
	// Seq increases per heartbeat sent on one connection.
	Seq uint64
	// HasAck marks a subscriber heartbeat carrying a piggybacked
	// cumulative delivery ack (protocol revision 5): an at-least-once
	// subscriber restates its last contiguous delivery seq on every idle
	// heartbeat, so the publisher's replay ring drains — and trailing
	// gaps get repaired — even when no events flow. Legacy heartbeats
	// decode with HasAck false.
	HasAck bool
	// AckSeq is the piggybacked cumulative ack (meaningful only when
	// HasAck is set); same semantics as Ack.Seq.
	AckSeq uint64
	// HasEcho marks a heartbeat reflecting a peer's probe (protocol
	// revision 6): EchoSeq repeats the Seq of a heartbeat the peer sent, so
	// the peer can subtract its recorded send time and obtain one
	// round-trip sample per heartbeat interval. A pure echo carries Seq 0;
	// endpoints only echo heartbeats with Seq > 0, so two v6 peers cannot
	// reflect echoes back and forth forever. Legacy heartbeats decode with
	// HasEcho false.
	HasEcho bool
	// EchoSeq is the reflected probe Seq (meaningful only when HasEcho is
	// set).
	EchoSeq uint64
}

// Raw is an unmodulated event message.
type Raw struct {
	// Handler names the receiving handler.
	Handler string
	// Seq is the per-subscription sequence number.
	Seq uint64
	// Event is the event value.
	Event mir.Value
}

// Continuation is the remote-continuation message (§2.4): the PSE where
// modulator-side processing stopped, the node at which the demodulator must
// resume, and the live variables of the split edge.
type Continuation struct {
	// Handler names the receiving handler.
	Handler string
	// Seq is the per-subscription sequence number.
	Seq uint64
	// PSEID is the unique id of the split edge.
	PSEID int32
	// ResumeNode is the instruction index at which to resume.
	ResumeNode int32
	// Vars is the live-variable snapshot (register name → value).
	Vars map[string]mir.Value
	// ModWork is the work (in work units) the modulator spent on this
	// message, carried for demodulator-side profiling.
	ModWork int64
}

// PSEStat is one PSE's profiling record inside a Feedback message.
type PSEStat struct {
	// ID is the PSE id.
	ID int32
	// Count is the number of messages observed through this PSE.
	Count uint64
	// Bytes is the mean continuation size in bytes.
	Bytes float64
	// ModWork is the mean modulator-side work per message (work units).
	ModWork float64
	// DemodWork is the mean demodulator-side work per message.
	DemodWork float64
	// Prob is the observed probability that a message's execution path
	// crosses this PSE.
	Prob float64
	// Failures is the cumulative count of messages that failed while split
	// at this PSE (modulator failures at the sender, demodulation failures
	// at the receiver), carried so the reconfiguration unit can route the
	// min-cut around broken split points.
	Failures uint64
}

// Feedback carries profiling statistics from the demodulator side to the
// reconfiguration unit (§2.5).
type Feedback struct {
	// Handler names the handler the statistics describe.
	Handler string
	// PlanVersion is the sender's active plan version at snapshot time
	// (zero when unknown). It lets the reconfiguration unit fast-forward
	// its version counter past plans installed behind its back — the
	// publisher's breaker degrades with a locally forced version, and a
	// plan selected against a lagging counter would be rejected as stale.
	PlanVersion uint64
	// Stats holds one record per profiled PSE.
	Stats []PSEStat
}

// Plan is a partitioning plan pushed to the modulator: which PSEs have their
// split flag set and which have their profiling flag set.
type Plan struct {
	// Handler names the handler the plan applies to.
	Handler string
	// Version increases with every reconfiguration.
	Version uint64
	// Split lists the PSE ids whose split flag is set.
	Split []int32
	// Profile lists the PSE ids whose profiling flag is set.
	Profile []int32
}

// Subscribe installs a handler at the sender side: the handler source is
// assembled, analysed and turned into a modulator there.
type Subscribe struct {
	// Protocol is the subscriber's wire protocol revision
	// (ProtocolVersion; zero-valued legacy messages are rejected).
	Protocol uint32
	// Subscriber identifies the subscribing component.
	Subscriber string
	// Channel names the event channel to attach to ("" = the default
	// channel; broadcasts reach every channel).
	Channel string
	// Handler names the handler (must match the func name in Source).
	Handler string
	// Source is the MIR assembler source (classes + func).
	Source string
	// CostModel names the cost model to analyse under.
	CostModel string
	// Natives lists the handler's native (receiver-pinned) functions, so
	// both ends mark identical StopNodes.
	Natives []string
	// Reliability selects the delivery mode (protocol revision 5):
	// ReliabilityBestEffort (the zero value, and the only behaviour older
	// revisions have) or ReliabilityAtLeastOnce. Publishers ignore it on
	// handshakes older than ReliableProtocolVersion.
	Reliability uint32
	// ResumeSeq is the subscriber's last contiguously received delivery
	// sequence number (protocol revision 5, at-least-once only): a
	// reconnecting subscriber resumes mid-stream — the publisher releases
	// ring entries up to it and replays what it still retains beyond it.
	// Zero on a first subscribe.
	ResumeSeq uint64
	// ResumeEpoch is the stream epoch ResumeSeq belongs to — the value of
	// the StreamStart frame that opened the stream the subscriber was
	// receiving. A publisher whose state carries a different epoch ignores
	// ResumeSeq (it numbers a dead stream) and the subscriber resets on
	// the new StreamStart. Zero on a first subscribe.
	ResumeEpoch uint64
}

// encoderPool recycles Encoders (buffer + reference tables) across Marshal
// and AppendMarshal calls, so steady-state message encoding allocates only
// what the caller asks for (the returned slice in Marshal, nothing in
// AppendMarshal when dst has capacity).
var encoderPool = sync.Pool{New: func() any { return NewEncoder() }}

// Marshal encodes the message with its type tag (but no length frame). The
// returned slice is freshly allocated and owned by the caller; hot paths
// that can reuse a buffer should prefer AppendMarshal.
func Marshal(msg any) ([]byte, error) {
	e := encoderPool.Get().(*Encoder)
	defer func() {
		e.Reset()
		encoderPool.Put(e)
	}()
	if err := e.encodeMessage(msg); err != nil {
		return nil, err
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// AppendMarshal encodes the message and appends it to dst, returning the
// extended slice. It reuses a pooled encoder, so a caller that recycles its
// destination buffer (dst[:0] of the previous result) encodes with zero
// steady-state allocations — the send-pipeline batching and heartbeat paths
// rely on this.
func AppendMarshal(dst []byte, msg any) ([]byte, error) {
	e := encoderPool.Get().(*Encoder)
	defer func() {
		e.Reset()
		encoderPool.Put(e)
	}()
	if err := e.encodeMessage(msg); err != nil {
		return nil, err
	}
	return append(dst, e.Bytes()...), nil
}

// encodeMessage appends one tagged message to the encoder's buffer.
func (e *Encoder) encodeMessage(msg any) error {
	switch m := msg.(type) {
	case *Raw:
		e.w.WriteByte(byte(MsgRaw))
		e.writeString(m.Handler)
		e.writeU64(m.Seq)
		if err := e.EncodeValue(m.Event); err != nil {
			return err
		}
	case *Continuation:
		e.w.WriteByte(byte(MsgContinuation))
		e.writeString(m.Handler)
		e.writeU64(m.Seq)
		e.writeU32(uint32(m.PSEID))
		e.writeU32(uint32(m.ResumeNode))
		e.writeU64(uint64(m.ModWork))
		base := len(e.names)
		for n := range m.Vars {
			e.names = append(e.names, n)
		}
		names := e.names[base:]
		slices.Sort(names)
		e.writeU32(uint32(len(names)))
		for _, n := range names {
			e.writeString(n)
			if err := e.EncodeValue(m.Vars[n]); err != nil {
				e.names = e.names[:base]
				return err
			}
		}
		e.names = e.names[:base]
	case *Batch:
		e.w.WriteByte(byte(MsgBatch))
		e.writeU32(uint32(len(m.Entries)))
		for _, entry := range m.Entries {
			e.writeU32(uint32(len(entry)))
			e.w.Write(entry)
		}
	case *Feedback:
		e.w.WriteByte(byte(MsgFeedback))
		e.writeString(m.Handler)
		e.writeU64(m.PlanVersion)
		e.writeU32(uint32(len(m.Stats)))
		for _, s := range m.Stats {
			e.writeU32(uint32(s.ID))
			e.writeU64(s.Count)
			e.writeU64(math.Float64bits(s.Bytes))
			e.writeU64(math.Float64bits(s.ModWork))
			e.writeU64(math.Float64bits(s.DemodWork))
			e.writeU64(math.Float64bits(s.Prob))
			e.writeU64(s.Failures)
		}
	case *Plan:
		e.w.WriteByte(byte(MsgPlan))
		e.writeString(m.Handler)
		e.writeU64(m.Version)
		e.writeU32(uint32(len(m.Split)))
		for _, id := range m.Split {
			e.writeU32(uint32(id))
		}
		e.writeU32(uint32(len(m.Profile)))
		for _, id := range m.Profile {
			e.writeU32(uint32(id))
		}
	case *Heartbeat:
		e.w.WriteByte(byte(MsgHeartbeat))
		e.writeU64(m.Seq)
		// Trailing fields: a flag bitmask (revision 5 defined bit 0 as the
		// piggybacked ack; revision 6 added bit 1 for the echo), then the
		// flagged fields in bit order. Pre-5 decoders ignored trailing
		// bytes on control frames and the revision-5 decoder tested the
		// flag byte for exactly 1, so both extensions are transparent to
		// older peers.
		var flag byte
		if m.HasAck {
			flag |= hbFlagAck
		}
		if m.HasEcho {
			flag |= hbFlagEcho
		}
		e.w.WriteByte(flag)
		if m.HasAck {
			e.writeU64(m.AckSeq)
		}
		if m.HasEcho {
			e.writeU64(m.EchoSeq)
		}
	case *Ack:
		e.w.WriteByte(byte(MsgAck))
		e.writeU64(m.Seq)
	case *Retransmit:
		e.w.WriteByte(byte(MsgRetransmit))
		e.writeU64(m.From)
		e.writeU64(m.To)
	case *Lost:
		e.w.WriteByte(byte(MsgLost))
		e.writeU64(m.From)
		e.writeU64(m.To)
	case *StreamStart:
		if m.Epoch == 0 {
			return fmt.Errorf("wire: stream start needs a non-zero epoch")
		}
		e.w.WriteByte(byte(MsgStreamStart))
		e.writeU64(m.Epoch)
	case *SeqEvent:
		if len(m.Payload) == 0 {
			return fmt.Errorf("wire: seq envelope needs a payload")
		}
		if m.Seq == 0 {
			return fmt.Errorf("wire: seq envelope needs a non-zero sequence")
		}
		e.w.WriteByte(byte(MsgSeqEvent))
		e.writeU64(m.Seq)
		e.w.Write(m.Payload)
	case *Nack:
		e.w.WriteByte(byte(MsgNack))
		e.writeString(m.Handler)
		e.writeU64(m.Seq)
		e.writeU32(uint32(m.PSEID))
		e.writeU32(uint32(m.Class))
	case *Subscribe:
		e.w.WriteByte(byte(MsgSubscribe))
		e.writeU32(m.Protocol)
		e.writeString(m.Subscriber)
		e.writeString(m.Channel)
		e.writeString(m.Handler)
		e.writeString(m.Source)
		e.writeString(m.CostModel)
		e.writeU32(uint32(len(m.Natives)))
		for _, n := range m.Natives {
			e.writeString(n)
		}
		// Revision-5 trailing fields; pre-5 decoders stop at the natives
		// and ignore them.
		e.writeU32(m.Reliability)
		e.writeU64(m.ResumeSeq)
		e.writeU64(m.ResumeEpoch)
	default:
		return fmt.Errorf("wire: cannot marshal %T", msg)
	}
	return nil
}

// AppendBatch appends one Batch frame wrapping the given event frames to
// dst, returning the extended slice. It is the allocation-free fast path of
// Marshal(&Batch{...}) for senders that assemble batches into a recycled
// buffer.
func AppendBatch(dst []byte, entries [][]byte) []byte {
	dst = append(dst, byte(MsgBatch))
	var u [4]byte
	binary.LittleEndian.PutUint32(u[:], uint32(len(entries)))
	dst = append(dst, u[:]...)
	for _, entry := range entries {
		binary.LittleEndian.PutUint32(u[:], uint32(len(entry)))
		dst = append(dst, u[:]...)
		dst = append(dst, entry...)
	}
	return dst
}

// Unmarshal decodes a message produced by Marshal. The concrete type of the
// result is *Raw, *Continuation, *Feedback, *Plan, *Subscribe, *Heartbeat,
// *Nack, *Batch, *Ack, *Retransmit, *Lost, *SeqEvent or *StreamStart.
// Batch entries and SeqEvent payloads alias data; they stay valid only as
// long as the input does.
func Unmarshal(data []byte) (any, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: empty message")
	}
	if MsgType(data[0]) == MsgBatch {
		return unmarshalBatch(data[1:])
	}
	if MsgType(data[0]) == MsgSeqEvent {
		return unmarshalSeqEvent(data[1:])
	}
	// A stack decoder: only the decoded message and its values reach the
	// heap.
	d := &Decoder{data: data[1:]}
	switch MsgType(data[0]) {
	case MsgRaw:
		m := &Raw{}
		var err error
		if m.Handler, err = d.readName(); err != nil {
			return nil, err
		}
		if m.Seq, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.Event, err = d.DecodeValue(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgContinuation:
		m := &Continuation{}
		var err error
		if m.Handler, err = d.readName(); err != nil {
			return nil, err
		}
		if m.Seq, err = d.readU64(); err != nil {
			return nil, err
		}
		pse, err := d.readU32()
		if err != nil {
			return nil, err
		}
		m.PSEID = int32(pse)
		node, err := d.readU32()
		if err != nil {
			return nil, err
		}
		m.ResumeNode = int32(node)
		work, err := d.readU64()
		if err != nil {
			return nil, err
		}
		m.ModWork = int64(work)
		n, err := d.readU32()
		if err != nil {
			return nil, err
		}
		// Each var costs at least a 4-byte name length + 1-byte value tag.
		if int64(n) > int64(d.Remaining())/5 {
			return nil, fmt.Errorf("wire: var count %d exceeds remaining payload", n)
		}
		m.Vars = make(map[string]mir.Value, n)
		for i := uint32(0); i < n; i++ {
			name, err := d.readName()
			if err != nil {
				return nil, err
			}
			v, err := d.DecodeValue()
			if err != nil {
				return nil, err
			}
			m.Vars[name] = v
		}
		return m, nil
	case MsgFeedback:
		m := &Feedback{}
		var err error
		if m.Handler, err = d.readName(); err != nil {
			return nil, err
		}
		if m.PlanVersion, err = d.readU64(); err != nil {
			return nil, err
		}
		n, err := d.readU32()
		if err != nil {
			return nil, err
		}
		// Each stat record is 52 bytes on the wire.
		if int64(n) > int64(d.Remaining())/52 {
			return nil, fmt.Errorf("wire: stat count %d exceeds remaining payload", n)
		}
		m.Stats = make([]PSEStat, n)
		for i := range m.Stats {
			s := &m.Stats[i]
			id, err := d.readU32()
			if err != nil {
				return nil, err
			}
			s.ID = int32(id)
			if s.Count, err = d.readU64(); err != nil {
				return nil, err
			}
			vals := [4]*float64{&s.Bytes, &s.ModWork, &s.DemodWork, &s.Prob}
			for _, p := range vals {
				u, err := d.readU64()
				if err != nil {
					return nil, err
				}
				*p = math.Float64frombits(u)
			}
			if s.Failures, err = d.readU64(); err != nil {
				return nil, err
			}
		}
		return m, nil
	case MsgPlan:
		m := &Plan{}
		var err error
		if m.Handler, err = d.readName(); err != nil {
			return nil, err
		}
		if m.Version, err = d.readU64(); err != nil {
			return nil, err
		}
		ns, err := d.readU32()
		if err != nil {
			return nil, err
		}
		if int64(ns) > int64(d.Remaining())/4 {
			return nil, fmt.Errorf("wire: split count %d exceeds remaining payload", ns)
		}
		m.Split = make([]int32, ns)
		for i := range m.Split {
			v, err := d.readU32()
			if err != nil {
				return nil, err
			}
			m.Split[i] = int32(v)
		}
		np, err := d.readU32()
		if err != nil {
			return nil, err
		}
		if int64(np) > int64(d.Remaining())/4 {
			return nil, fmt.Errorf("wire: profile count %d exceeds remaining payload", np)
		}
		m.Profile = make([]int32, np)
		for i := range m.Profile {
			v, err := d.readU32()
			if err != nil {
				return nil, err
			}
			m.Profile[i] = int32(v)
		}
		return m, nil
	case MsgHeartbeat:
		m := &Heartbeat{}
		var err error
		if m.Seq, err = d.readU64(); err != nil {
			return nil, err
		}
		// Trailing fields: absent on legacy frames (flags stay false),
		// otherwise a flag bitmask followed by the flagged fields in bit
		// order (ack, then echo). Unknown bits are tolerated — a future
		// revision's extra fields simply go unread, like trailing bytes
		// always have on control frames.
		if d.Remaining() > 0 {
			flag, err := d.readByte()
			if err != nil {
				return nil, err
			}
			if flag&hbFlagAck != 0 {
				if m.AckSeq, err = d.readU64(); err != nil {
					return nil, err
				}
				m.HasAck = true
			}
			if flag&hbFlagEcho != 0 {
				if m.EchoSeq, err = d.readU64(); err != nil {
					return nil, err
				}
				m.HasEcho = true
			}
		}
		return m, nil
	case MsgAck:
		m := &Ack{}
		var err error
		if m.Seq, err = d.readU64(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgRetransmit:
		m := &Retransmit{}
		var err error
		if m.From, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.To, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.To < m.From {
			return nil, fmt.Errorf("wire: retransmit range [%d, %d] is inverted", m.From, m.To)
		}
		return m, nil
	case MsgStreamStart:
		m := &StreamStart{}
		var err error
		if m.Epoch, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.Epoch == 0 {
			return nil, fmt.Errorf("wire: stream start with zero epoch")
		}
		return m, nil
	case MsgLost:
		m := &Lost{}
		var err error
		if m.From, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.To, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.To < m.From {
			return nil, fmt.Errorf("wire: lost range [%d, %d] is inverted", m.From, m.To)
		}
		return m, nil
	case MsgNack:
		m := &Nack{}
		var err error
		if m.Handler, err = d.readName(); err != nil {
			return nil, err
		}
		if m.Seq, err = d.readU64(); err != nil {
			return nil, err
		}
		pse, err := d.readU32()
		if err != nil {
			return nil, err
		}
		m.PSEID = int32(pse)
		class, err := d.readU32()
		if err != nil {
			return nil, err
		}
		m.Class = NackClass(class)
		return m, nil
	case MsgSubscribe:
		m := &Subscribe{}
		var err error
		if m.Protocol, err = d.readU32(); err != nil {
			return nil, err
		}
		if m.Subscriber, err = d.readString(); err != nil {
			return nil, err
		}
		if m.Channel, err = d.readString(); err != nil {
			return nil, err
		}
		if m.Handler, err = d.readName(); err != nil {
			return nil, err
		}
		if m.Source, err = d.readString(); err != nil {
			return nil, err
		}
		if m.CostModel, err = d.readString(); err != nil {
			return nil, err
		}
		nn, err := d.readU32()
		if err != nil {
			return nil, err
		}
		// Each native name costs at least its 4-byte length prefix.
		if int64(nn) > int64(d.Remaining())/4 {
			return nil, fmt.Errorf("wire: native count %d exceeds remaining payload", nn)
		}
		for i := uint32(0); i < nn; i++ {
			n, err := d.readString()
			if err != nil {
				return nil, err
			}
			m.Natives = append(m.Natives, n)
		}
		// Revision-5 trailing fields: absent on legacy handshakes, which
		// decode as best-effort with no resume point. ResumeEpoch is a
		// later addition with its own guard, so handshakes from earlier
		// revision-5 builds decode with epoch 0 (no stream adopted).
		if d.Remaining() > 0 {
			if m.Reliability, err = d.readU32(); err != nil {
				return nil, err
			}
			if m.ResumeSeq, err = d.readU64(); err != nil {
				return nil, err
			}
			if d.Remaining() > 0 {
				if m.ResumeEpoch, err = d.readU64(); err != nil {
					return nil, err
				}
			}
		}
		return m, nil
	default:
		return nil, fmt.Errorf("wire: unknown message type %d", data[0])
	}
}

// unmarshalBatch splits a batch payload into its entry frames without
// copying. Every embedded length is clamped against the bytes actually
// present, so a corrupt count or entry length fails fast instead of forcing
// an allocation the input cannot back.
func unmarshalBatch(data []byte) (*Batch, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("wire: batch header truncated")
	}
	count := binary.LittleEndian.Uint32(data[:4])
	data = data[4:]
	// Each entry costs at least a 4-byte length prefix plus a 1-byte
	// message tag.
	if int64(count) > int64(len(data))/5 {
		return nil, fmt.Errorf("wire: batch count %d exceeds remaining payload", count)
	}
	b := &Batch{Entries: make([][]byte, 0, count)}
	for i := uint32(0); i < count; i++ {
		if len(data) < 4 {
			return nil, fmt.Errorf("wire: batch entry %d header truncated", i)
		}
		n := binary.LittleEndian.Uint32(data[:4])
		data = data[4:]
		if int64(n) > int64(len(data)) {
			return nil, fmt.Errorf("wire: batch entry %d length %d exceeds remaining %d", i, n, len(data))
		}
		if n == 0 {
			return nil, fmt.Errorf("wire: batch entry %d is empty", i)
		}
		b.Entries = append(b.Entries, data[:n:n])
		data = data[n:]
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("wire: batch has %d trailing bytes", len(data))
	}
	return b, nil
}
