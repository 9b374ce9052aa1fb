package wire

import (
	"bytes"
	"testing"
)

// TestReliableRoundTrips covers the at-least-once control frames.
func TestReliableRoundTrips(t *testing.T) {
	inner, err := Marshal(&Nack{Handler: "h", Seq: 1}) // any valid frame works as a payload
	if err != nil {
		t.Fatal(err)
	}
	msgs := []any{
		&Ack{Seq: 42},
		&Lost{From: 3, To: 3},
		&SeqEvent{Seq: 9, Payload: inner},
		&StreamStart{Epoch: 1234567},
	}
	for _, m := range msgs {
		data, err := Marshal(m)
		if err != nil {
			t.Fatalf("marshal %T: %v", m, err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("unmarshal %T: %v", m, err)
		}
		switch want := m.(type) {
		case *Ack:
			if g := got.(*Ack); *g != *want {
				t.Fatalf("ack roundtrip: got %+v want %+v", g, want)
			}
		case *Lost:
			if g := got.(*Lost); *g != *want {
				t.Fatalf("lost roundtrip: got %+v want %+v", g, want)
			}
		case *SeqEvent:
			g := got.(*SeqEvent)
			if g.Seq != want.Seq || !bytes.Equal(g.Payload, want.Payload) {
				t.Fatalf("seq envelope roundtrip: got %+v want %+v", g, want)
			}
		case *StreamStart:
			if g := got.(*StreamStart); *g != *want {
				t.Fatalf("stream start roundtrip: got %+v want %+v", g, want)
			}
		}
	}
}

// TestStreamStartRejectsZeroEpoch: epoch 0 is the receiver-side "no stream
// adopted" sentinel and must never appear on the wire in either direction.
func TestStreamStartRejectsZeroEpoch(t *testing.T) {
	if _, err := Marshal(&StreamStart{}); err == nil {
		t.Fatal("marshal of zero-epoch stream start succeeded")
	}
	if _, err := Unmarshal([]byte{byte(MsgStreamStart), 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unmarshal of zero-epoch stream start succeeded")
	}
}

// TestSeqEventAppendFastPath: AppendSeqEvent must produce byte-identical
// output to Marshal(&SeqEvent{...}) — the pipeline uses the append form.
func TestSeqEventAppendFastPath(t *testing.T) {
	payload, err := Marshal(&Heartbeat{Seq: 5})
	if err != nil {
		t.Fatal(err)
	}
	viaMarshal, err := Marshal(&SeqEvent{Seq: 77, Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	viaAppend := AppendSeqEvent(nil, 77, payload)
	if !bytes.Equal(viaMarshal, viaAppend) {
		t.Fatalf("AppendSeqEvent diverges from Marshal:\n append: %x\nmarshal: %x", viaAppend, viaMarshal)
	}
	m, err := Unmarshal(viaAppend)
	if err != nil {
		t.Fatal(err)
	}
	se := m.(*SeqEvent)
	if se.Seq != 77 || !bytes.Equal(se.Payload, payload) {
		t.Fatalf("decoded envelope %+v, want seq 77 payload %x", se, payload)
	}
}

// TestSeqEventRejectsDegenerate: empty payloads and zero sequences never
// appear on a healthy channel; both directions must reject them rather
// than let a zero-seq frame corrupt dedup state.
func TestSeqEventRejectsDegenerate(t *testing.T) {
	if _, err := Marshal(&SeqEvent{Seq: 1}); err == nil {
		t.Fatal("marshal of empty envelope succeeded")
	}
	if _, err := Marshal(&SeqEvent{Seq: 0, Payload: []byte{1}}); err == nil {
		t.Fatal("marshal of zero-seq envelope succeeded")
	}
	if _, err := Unmarshal([]byte{byte(MsgSeqEvent), 0, 0, 0, 0, 0, 0, 0, 0, 1}); err == nil {
		t.Fatal("unmarshal of zero-seq envelope succeeded")
	}
	if _, err := Unmarshal(AppendSeqEvent(nil, 1, nil)); err == nil {
		t.Fatal("unmarshal of empty envelope succeeded")
	}
}

// TestRangeFramesRejectInverted: a Lost whose To < From is a corrupt
// frame, not a declaration the receiver should guess at.
func TestRangeFramesRejectInverted(t *testing.T) {
	data, err := Marshal(&Lost{From: 9, To: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(data); err == nil {
		t.Fatal("unmarshal of an inverted lost range succeeded")
	}
}

// TestRetiredTagRejected: tag 10, revision 6's retransmit request, sits
// between MsgAck and MsgLost and no longer decodes.
func TestRetiredTagRejected(t *testing.T) {
	if MsgAck != 9 || MsgLost != 11 || MsgSeqEvent != 12 || MsgStreamStart != 13 {
		t.Fatalf("reliability tags moved: ack %d lost %d seq %d start %d", MsgAck, MsgLost, MsgSeqEvent, MsgStreamStart)
	}
	if _, err := Unmarshal([]byte{10, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("a tag-10 frame decoded")
	}
}

// TestSubscribeReliabilityRoundTrip covers the handshake's reliability
// fields.
func TestSubscribeReliabilityRoundTrip(t *testing.T) {
	in := &Subscribe{
		Protocol: ProtocolVersion, Subscriber: "s", Handler: "h",
		Source: "src", CostModel: "datasize", Natives: []string{"n"},
		Reliability: ReliabilityAtLeastOnce, ResumeSeq: 123, ResumeEpoch: 456,
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	out := got.(*Subscribe)
	if out.Reliability != ReliabilityAtLeastOnce || out.ResumeSeq != 123 || out.ResumeEpoch != 456 {
		t.Fatalf("roundtrip lost reliability fields: %+v", out)
	}
}

// truncatedSubscribe is a full Subscribe frame less its last cut bytes.
func truncatedSubscribe(t *testing.T, cut int) []byte {
	t.Helper()
	data, err := Marshal(&Subscribe{
		Protocol: ProtocolVersion, Subscriber: "s", Handler: "h",
		Source: "src", CostModel: "datasize", Natives: []string{"n"},
		Reliability: ReliabilityAtLeastOnce, ResumeSeq: 55, ResumeEpoch: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data[:len(data)-cut]
}

// TestSubscribeWithoutEpochRejected: a handshake that ends after ResumeSeq,
// as earlier at-least-once builds wrote it, is a decode error rather than
// a resume with epoch 0.
func TestSubscribeWithoutEpochRejected(t *testing.T) {
	if m, err := Unmarshal(truncatedSubscribe(t, 8)); err == nil {
		t.Fatalf("subscribe without ResumeEpoch decoded: %+v", m)
	}
}

// TestSubscribeWithoutReliabilityRejected: a handshake that ends after the
// natives, as pre-reliability peers wrote it, is a decode error rather than
// a best-effort subscription, and so is every cut inside the trailing
// Reliability, ResumeSeq and ResumeEpoch fields.
func TestSubscribeWithoutReliabilityRejected(t *testing.T) {
	for cut := 1; cut <= 4+8+8; cut++ {
		if m, err := Unmarshal(truncatedSubscribe(t, cut)); err == nil {
			t.Fatalf("subscribe less its last %d bytes decoded: %+v", cut, m)
		}
	}
}

// TestHeartbeatAckPiggyback covers the heartbeat's piggybacked ack, and
// rejects a heartbeat without its flag byte.
func TestHeartbeatAckPiggyback(t *testing.T) {
	data, err := Marshal(&Heartbeat{Seq: 3, HasAck: true, AckSeq: 88})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	hb := got.(*Heartbeat)
	if !hb.HasAck || hb.AckSeq != 88 || hb.Seq != 3 {
		t.Fatalf("heartbeat ack roundtrip: %+v", hb)
	}

	data, err = Marshal(&Heartbeat{Seq: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err = Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if hb := got.(*Heartbeat); hb.HasAck || hb.AckSeq != 0 {
		t.Fatalf("ackless heartbeat grew an ack: %+v", hb)
	}

	// Tag + seq with no flag byte: the frame is truncated.
	short := []byte{byte(MsgHeartbeat), 6, 0, 0, 0, 0, 0, 0, 0}
	if m, err := Unmarshal(short); err == nil {
		t.Fatalf("heartbeat without its flag byte decoded: %+v", m)
	}
}
