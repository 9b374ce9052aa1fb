package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"methodpart/internal/mir"
)

// ProtocolVersion is the one wire protocol revision both ends speak. A
// subscription handshake carries it, and a publisher refuses any other
// revision before compiling or sending anything. Revision 8 is: Raw and
// Continuation event frames, optionally coalesced into Batch frames;
// Feedback (per-PSE statistics with failure counts and the sender's plan
// version), Plan and Nack control frames; Heartbeats that carry a flag byte
// for a piggybacked ack and an echo of the peer's probe; and the opt-in
// at-least-once layer (SeqEvent envelopes, Ack, Lost and StreamStart
// frames, and the Subscribe handshake's Reliability, ResumeSeq and
// ResumeEpoch fields; see reliable.go). Every field is always written and
// always required.
//
// Revision 8 compiles the event frames against the program the handshake
// bound the connection to. A Raw frame is (seq, event) and a Continuation
// (PSE id, seq, ModWork, slot values in the PSE's variable order), with
// varint integers and no handler, class, field or variable names; objects
// of declared classes travel as (class index, field values in declared
// order) — see Schema. Revision 7 spelled every name out and wrote
// fixed-width integers; tag 10, revision 6's retransmit request, no longer
// decodes.
const ProtocolVersion uint32 = 8

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
	// MsgNack reports a demodulation failure upstream: the receiver could
	// not complete a message and quarantined it.
	MsgNack
	// MsgBatch coalesces multiple event frames (MsgRaw/MsgContinuation)
	// into one wire frame, amortising per-frame transport overhead on
	// busy channels. Receivers unpack and process each entry
	// independently, so per-entry fault containment (NACKs,
	// dead-lettering) is preserved.
	MsgBatch
	// MsgAck is the cumulative delivery acknowledgement: everything up to
	// Ack.Seq arrived, release the replay ring behind it.
	MsgAck
	// Tag 10 was the retransmit request of revision 6; it is not reused.
	_
	// MsgLost declares a sequence range the publisher skipped on this
	// stream, ahead of the next frame it sends.
	MsgLost
	// MsgSeqEvent is the per-subscription delivery-sequence envelope
	// around one event frame.
	MsgSeqEvent
	// MsgStreamStart announces the delivery stream's epoch as the first
	// frame of an at-least-once subscription, so a resuming subscriber
	// can tell a continued stream from a fresh one.
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
// sender. The sender feeds it into the per-PSE circuit breaker: enough Nacks
// against one PSE trip it out of the eligible split set.
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

// Batch is one coalesced wire frame holding several event frames. Entries
// are complete Marshal outputs (tag byte included) of MsgRaw or
// MsgContinuation messages; control frames never batch, because feedback
// coalesces to-latest and heartbeats are only sent on idle channels. Decoded
// entries alias the frame they were unmarshalled from.
type Batch struct {
	// Entries holds the constituent event frames, in send order.
	Entries [][]byte
}

// Heartbeat trailing-flag bits: the byte after Seq is a bitmask naming the
// optional fields that follow, in bit order.
const (
	hbFlagAck  byte = 1 << 0 // AckSeq follows
	hbFlagEcho byte = 1 << 1 // EchoSeq follows
)

// Heartbeat is the liveness control message. Any received frame counts as
// liveness; heartbeats exist so liveness frames keep flowing when no events,
// feedback or plans are due.
type Heartbeat struct {
	// Seq marks a probe: a heartbeat with Seq > 0 asks the peer for an
	// echo, and Seq increases per probe sent on one connection. Seq 0 is
	// a plain liveness frame. A subscriber probes on every heartbeat (its
	// RTT samples); a publisher only once the subscriber has been silent
	// for a while.
	Seq uint64
	// HasAck marks a subscriber heartbeat carrying a piggybacked
	// cumulative delivery ack: an at-least-once subscriber restates its
	// last contiguous delivery seq on every idle heartbeat, so the
	// publisher's replay ring drains — and trailing gaps get repaired —
	// even when no events flow.
	HasAck bool
	// AckSeq is the piggybacked cumulative ack (meaningful only when
	// HasAck is set); same semantics as Ack.Seq.
	AckSeq uint64
	// HasEcho marks a heartbeat reflecting a peer's probe: EchoSeq
	// repeats the Seq of a heartbeat the peer sent, so the peer can
	// subtract its recorded send time and obtain one round-trip sample.
	// A pure echo carries Seq 0; endpoints only echo heartbeats with
	// Seq > 0, so two peers cannot reflect echoes back and forth forever.
	HasEcho bool
	// EchoSeq is the reflected probe Seq (meaningful only when HasEcho is
	// set).
	EchoSeq uint64
}

// Raw is an unmodulated event message: (seq, event value). The event is
// encoded under Schema. A decoded Raw keeps the encoded event as a view of
// the frame; DecodeEvent decodes it against the receiver's schema.
type Raw struct {
	// Seq is the per-subscription sequence number.
	Seq uint64
	// Event is the event value. Unmarshal leaves it nil; see DecodeEvent.
	Event mir.Value
	// Schema is the layout the sender encodes Event under (nil: every
	// object in the tagged form). Not on the wire.
	Schema *Schema

	// body is the encoded event, a view of the decoded frame.
	body []byte
}

// DecodeEvent returns the event: the decoded frame's event value under s,
// or Event for a message that was never marshalled. The decoded value is a
// copy, never a view of the frame.
func (r *Raw) DecodeEvent(s *Schema) (mir.Value, error) {
	if r.body == nil {
		return r.Event, nil
	}
	d := Decoder{data: r.body, schema: s}
	v, err := d.DecodeValue()
	if err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("wire: raw event has %d trailing bytes", d.Remaining())
	}
	return v, nil
}

// Continuation is the remote-continuation message (§2.4): the PSE where
// modulator-side processing stopped and the live variables of the split
// edge, one slot per entry of the PSE's variable list, in that order. The
// resume node is not on the wire: the receiver derives it from the PSE.
type Continuation struct {
	// Seq is the per-subscription sequence number.
	Seq uint64
	// PSEID is the unique id of the split edge; negative for a forced
	// split at an edge that is not a PSE (see Forced).
	PSEID int32
	// Forced indexes the program's forced-split edges when PSEID is
	// negative; it is on the wire only then.
	Forced uint32
	// ResumeNode is the instruction index at which to resume. The sender
	// sets it for its own reporting; it is not on the wire.
	ResumeNode int32
	// ModWork is the work (in work units) the modulator spent on this
	// message, carried for demodulator-side profiling.
	ModWork int64
	// Vars holds the live variables in slot order; an unset register is a
	// SlotAbsent slot. Unmarshal leaves it nil; see DecodeVars.
	Vars []Slot
	// Schema is the layout the sender encodes object values under. Not on
	// the wire.
	Schema *Schema

	// body is the encoded slot count and slots, a view of the decoded
	// frame.
	body []byte
}

// ErrSlotCount reports a continuation whose slot count does not match the
// PSE it names: its variables cannot be restored.
var ErrSlotCount = errors.New("wire: continuation slot count does not match its PSE")

// DecodeVars appends the continuation's want slots to dst and returns the
// extended slice: from the decoded frame under s, or Vars for a message
// that was never marshalled. A slot count other than want is an error.
func (c *Continuation) DecodeVars(s *Schema, want int, dst []Slot) ([]Slot, error) {
	if c.body == nil {
		if len(c.Vars) != want {
			return dst, fmt.Errorf("%w: %d slots, want %d", ErrSlotCount, len(c.Vars), want)
		}
		return append(dst, c.Vars...), nil
	}
	d := Decoder{data: c.body, schema: s}
	n, err := d.readUvarint()
	if err != nil {
		return dst, err
	}
	if n != uint64(want) {
		return dst, fmt.Errorf("%w: %d slots, want %d", ErrSlotCount, n, want)
	}
	for i := 0; i < want; i++ {
		sl, err := d.DecodeSlot()
		if err != nil {
			return dst, err
		}
		dst = append(dst, sl)
	}
	if d.Remaining() != 0 {
		return dst, fmt.Errorf("wire: continuation has %d trailing bytes", d.Remaining())
	}
	return dst, nil
}

// FrameSize is the encoded length of r's frame, priced without encoding.
func (r *Raw) FrameSize() int64 {
	if r.body != nil {
		return RawFrameSize(r.Seq, int64(len(r.body)))
	}
	return RawFrameSize(r.Seq, SizeOf(r.Schema, r.Event))
}

// FrameSize is the encoded length of c's frame, priced without encoding.
func (c *Continuation) FrameSize() int64 {
	if c.body != nil {
		return continuationHeaderSize(c.PSEID, c.Forced, c.Seq, c.ModWork) + int64(len(c.body))
	}
	return ContinuationFrameSize(c.PSEID, c.Forced, c.Seq, c.ModWork, len(c.Vars), SizeOfSlots(c.Schema, c.Vars))
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
	// Protocol is the subscriber's wire protocol revision; publishers
	// accept only ProtocolVersion.
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
	// Reliability selects the delivery mode: ReliabilityBestEffort (the
	// zero value) or ReliabilityAtLeastOnce.
	Reliability uint32
	// ResumeSeq is the subscriber's last contiguously received delivery
	// sequence number (at-least-once only): a reconnecting subscriber
	// resumes mid-stream — the publisher releases ring entries up to it
	// and replays what it still retains beyond it. Zero on a first
	// subscribe.
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
var encoderPool = sync.Pool{New: func() any { return NewEncoder(nil) }}

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
		e.writeUvarint(m.Seq)
		if m.body != nil {
			e.w.Write(m.body)
			break
		}
		e.schema = m.Schema
		if err := e.EncodeValue(m.Event); err != nil {
			return err
		}
	case *Continuation:
		e.w.WriteByte(byte(MsgContinuation))
		e.writeVarint(int64(m.PSEID))
		if m.PSEID < 0 {
			e.writeUvarint(uint64(m.Forced))
		}
		e.writeUvarint(m.Seq)
		e.writeVarint(m.ModWork)
		if m.body != nil {
			e.w.Write(m.body)
			break
		}
		e.schema = m.Schema
		e.writeUvarint(uint64(len(m.Vars)))
		for _, sl := range m.Vars {
			if err := e.EncodeSlot(sl); err != nil {
				return err
			}
		}
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
		// A flag bitmask (bit 0 the piggybacked ack, bit 1 the echo), then
		// the flagged fields in bit order.
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
// *Nack, *Batch, *Ack, *Lost, *SeqEvent or *StreamStart.
// Batch entries, SeqEvent payloads and the encoded values of Raw and
// Continuation alias data; they stay valid only as long as the input does.
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
	// heap. Event values stay encoded as views of data until the receiver
	// decodes them against its schema.
	d := &Decoder{data: data[1:]}
	switch MsgType(data[0]) {
	case MsgRaw:
		m := &Raw{}
		var err error
		if m.Seq, err = d.readUvarint(); err != nil {
			return nil, err
		}
		if m.body, err = d.rest("raw event"); err != nil {
			return nil, err
		}
		return m, nil
	case MsgContinuation:
		m := &Continuation{}
		pse, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		if pse < math.MinInt32 || pse > math.MaxInt32 {
			return nil, fmt.Errorf("wire: pse id %d out of range", pse)
		}
		m.PSEID = int32(pse)
		if m.PSEID < 0 {
			forced, err := d.readUvarint()
			if err != nil {
				return nil, err
			}
			if forced > math.MaxUint32 {
				return nil, fmt.Errorf("wire: forced split %d out of range", forced)
			}
			m.Forced = uint32(forced)
		}
		if m.Seq, err = d.readUvarint(); err != nil {
			return nil, err
		}
		if m.ModWork, err = d.readVarint(); err != nil {
			return nil, err
		}
		if m.body, err = d.rest("continuation slots"); err != nil {
			return nil, err
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
		// The flag bitmask is required, then the flagged fields in bit
		// order (ack, then echo). Unknown bits are ignored, like trailing
		// bytes on control frames.
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
		return m, nil
	case MsgAck:
		m := &Ack{}
		var err error
		if m.Seq, err = d.readU64(); err != nil {
			return nil, err
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
		if m.Reliability, err = d.readU32(); err != nil {
			return nil, err
		}
		if m.ResumeSeq, err = d.readU64(); err != nil {
			return nil, err
		}
		if m.ResumeEpoch, err = d.readU64(); err != nil {
			return nil, err
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
