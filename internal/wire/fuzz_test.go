package wire

import (
	"testing"

	"methodpart/internal/mir"
)

// fuzzSeedCount is the size of FuzzUnmarshal's seed corpus; truncated
// frames fill it up to this count.
const fuzzSeedCount = 320

// FuzzUnmarshal: arbitrary bytes must decode to a message or fail with an
// error — never panic and never allocate absurd amounts — and so must the
// event value or continuation slots of a decoded event frame, under the
// ImageData schema. The corpus is seeded with one valid frame of every
// protocol message so the fuzzer starts from deep, structurally
// interesting inputs.
func FuzzUnmarshal(f *testing.F) {
	schema := imageSchema()
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 64)
	ev.Fields["width"] = mir.Int(8)
	ev.Fields["height"] = mir.Int(8)
	odd := mir.NewObject("Blob")
	odd.Fields["self"] = odd
	odd.Fields["img"] = ev
	seeds := []any{
		&Raw{Seq: 1, Event: ev, Schema: schema},
		&Continuation{Seq: 2, PSEID: 1, ModWork: 12, Schema: schema,
			Vars: slotsOf(ev, mir.Int(1), mir.Str("x"), mir.IntArray{1, 2, 3}, mir.Null{}, nil, odd)},
		&Feedback{Handler: "push", Stats: []PSEStat{
			{ID: 0, Count: 9, Bytes: 100},
			{ID: 1, Count: 5, Bytes: 10, Failures: 2},
		}},
		&Plan{Handler: "push", Version: 7, Split: []int32{1, 3}, Profile: []int32{0, 1, 2, 3}},
		&Subscribe{Protocol: ProtocolVersion, Subscriber: "s", Handler: "push", Source: "func push(event) {\n  return\n}",
			CostModel: "datasize", Natives: []string{"displayImage"}},
		&Nack{Handler: "push", Seq: 3, PSEID: 2, Class: NackRestore},
		&Heartbeat{},
		&Heartbeat{Seq: 4, HasAck: true, AckSeq: 1 << 40},
		&Subscribe{Protocol: ProtocolVersion, Subscriber: "s", Handler: "push", Source: "func push(event) {\n  return\n}",
			CostModel: "datasize", Natives: []string{"displayImage"},
			Reliability: ReliabilityAtLeastOnce, ResumeSeq: 12345, ResumeEpoch: 67890},
		&Ack{Seq: 99},
		&Lost{From: 21, To: 21},
		&StreamStart{Epoch: 1 << 50},
	}
	rawFrame, err := Marshal(seeds[0])
	if err != nil {
		f.Fatal(err)
	}
	contFrame, err := Marshal(seeds[1])
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, &Batch{Entries: [][]byte{rawFrame, contFrame}})
	seeds = append(seeds, &SeqEvent{Seq: 6, Payload: rawFrame})
	// A batch of sequence envelopes — the shape a reliable subscription
	// actually receives when batching is on.
	seeds = append(seeds, &Batch{Entries: [][]byte{
		AppendSeqEvent(nil, 7, rawFrame),
		AppendSeqEvent(nil, 8, contFrame),
	}})
	n := 0
	add := func(data []byte) {
		if n < fuzzSeedCount {
			f.Add(data)
			n++
		}
	}
	for _, m := range seeds {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		add(data)
	}
	add([]byte{})
	add([]byte{0xff, 0xff, 0xff, 0xff})
	// Corrupt embedded length prefixes: the in-frame counts claim far more
	// than the remaining input holds. The decoder must clamp each against
	// what is actually present instead of allocating toward the claim.
	add([]byte{byte(MsgRaw), 1, tagStr, 0xff, 0xff, 0xff, 0x7f, 'x'})  // string length ≫ remaining
	add([]byte{byte(MsgBatch), 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 1}) // batch count ≫ remaining
	add([]byte{byte(MsgBatch), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 1}) // entry length ≫ remaining
	// A Raw frame whose event object claims ~2^28 fields with no bytes to
	// back them: zero seq, empty class, poisoned field count.
	add([]byte{byte(MsgRaw), 0, tagObject, 0, 0xff, 0xff, 0xff, 0x7f})
	// Reliability-frame corruption: a cumulative ack absurdly far ahead of
	// anything ever sent (the publisher must clamp, not release unsent ring
	// entries), an inverted lost range, a truncated sequence
	// envelope header, and an envelope wrapping garbage instead of a frame.
	// Tag 10, revision 6's retransmit request, is retired: its well-formed
	// and inverted-range frames must now fail to decode.
	add([]byte{byte(MsgAck), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	add([]byte{10, 10, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0})
	add([]byte{10, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	add([]byte{byte(MsgLost), 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	add([]byte{byte(MsgSeqEvent), 1, 2, 3})
	add(AppendSeqEvent(nil, 5, []byte{0xfe, 0xfd}))
	// Stream-start corruption: a truncated epoch and the forbidden zero
	// epoch (the receiver-side "no stream adopted" sentinel).
	add([]byte{byte(MsgStreamStart), 1, 2})
	add([]byte{byte(MsgStreamStart), 0, 0, 0, 0, 0, 0, 0, 0})
	// Objects nested one level past the bound: the decoder must refuse
	// them instead of recursing toward a stack overflow.
	add(nestedFrame(maxValueDepth + 1))
	// Frames truncated inside each field: every proper prefix of a compact
	// raw event, continuation (one split at a PSE, one forced), feedback
	// and subscribe frame, so each varint, length, count and value is cut
	// at every byte, until the corpus is full.
	compact := mir.NewObject("ImageData")
	compact.Fields["buff"] = mir.Bytes{1, 2}
	compact.Fields["width"] = mir.Int(300)
	compact.Fields["height"] = mir.Int(-1)
	for _, m := range []any{
		&Raw{Seq: 1 << 40, Event: compact, Schema: schema},
		&Raw{Seq: 3, Event: compact},
		&Continuation{Seq: 3, PSEID: 2, ModWork: 9, Schema: schema,
			Vars: slotsOf(compact, mir.Float(0.5), mir.IntArray{-1}, mir.FloatArray{2}, mir.Bool(true), mir.Str("x"), nil, compact)},
		&Continuation{Seq: 1 << 30, PSEID: -1, Forced: 3, ModWork: -7, Vars: slotsOf(mir.Int(-1 << 40))},
		&Feedback{Handler: "p", PlanVersion: 2, Stats: []PSEStat{{ID: 1, Count: 5, Bytes: 10, Failures: 2}}},
		&Subscribe{Protocol: ProtocolVersion, Subscriber: "sub", Handler: "push", Source: "func push(event) {\n  return\n}",
			CostModel: "datasize", Natives: []string{"displayImage"}, Reliability: ReliabilityAtLeastOnce},
	} {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			add(data[:cut])
		}
	}
	if n != fuzzSeedCount {
		f.Fatalf("seeded %d frames, want %d", n, fuzzSeedCount)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err == nil && msg == nil {
			t.Fatalf("Unmarshal(%x): nil message with nil error", data)
		}
		if err == nil {
			_, _ = decodeBody(msg, schema)
		}
	})
}
