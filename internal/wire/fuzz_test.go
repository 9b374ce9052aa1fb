package wire

import (
	"testing"

	"methodpart/internal/mir"
)

// FuzzUnmarshal: arbitrary bytes must decode to a message or fail with an
// error — never panic and never allocate absurd amounts. The corpus is
// seeded with one valid frame of every protocol message so the fuzzer
// starts from deep, structurally interesting inputs.
func FuzzUnmarshal(f *testing.F) {
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 64)
	ev.Fields["width"] = mir.Int(8)
	ev.Fields["height"] = mir.Int(8)
	seeds := []any{
		&Raw{Handler: "push", Seq: 1, Event: ev},
		&Continuation{Handler: "push", Seq: 2, PSEID: 1, ResumeNode: 5,
			Vars: map[string]mir.Value{"r2": ev, "z0": mir.Int(1), "s": mir.Str("x"),
				"a": mir.IntArray{1, 2, 3}, "n": mir.Null{}}},
		&Feedback{Handler: "push", Stats: []PSEStat{
			{ID: 0, Count: 9, Bytes: 100},
			{ID: 1, Count: 5, Bytes: 10, Failures: 2},
		}},
		&Plan{Handler: "push", Version: 7, Split: []int32{1, 3}, Profile: []int32{0, 1, 2, 3}},
		&Subscribe{Subscriber: "s", Handler: "push", Source: "func push(event) {\n  return\n}",
			CostModel: "datasize", Natives: []string{"displayImage"}},
		&Nack{Handler: "push", Seq: 3, PSEID: 2, Class: NackRestore},
		&Heartbeat{},
		&Heartbeat{Seq: 4, HasAck: true, AckSeq: 1 << 40},
		&Subscribe{Subscriber: "s", Handler: "push", Source: "func push(event) {\n  return\n}",
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
	for _, m := range seeds {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// Corrupt embedded length prefixes: the in-frame counts claim far more
	// than the remaining input holds. The decoder must clamp each against
	// what is actually present instead of allocating toward the claim.
	f.Add([]byte{byte(MsgRaw), 0xff, 0xff, 0xff, 0x7f, 'x'})             // string length ≫ remaining
	f.Add([]byte{byte(MsgBatch), 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 1}) // batch count ≫ remaining
	f.Add([]byte{byte(MsgBatch), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 1}) // entry length ≫ remaining
	// A Raw frame whose event object claims ~2^31 fields with no bytes to
	// back them: empty handler, zero seq, empty class, poisoned field count.
	corruptObj := []byte{byte(MsgRaw), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	corruptObj = append(corruptObj, 9 /* tagObject */, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f)
	f.Add(corruptObj)
	// Reliability-frame corruption: a cumulative ack absurdly far ahead of
	// anything ever sent (the publisher must clamp, not release unsent ring
	// entries), an inverted lost range, a truncated sequence
	// envelope header, and an envelope wrapping garbage instead of a frame.
	// Tag 10, revision 6's retransmit request, is retired: its well-formed
	// and inverted-range frames must now fail to decode.
	f.Add([]byte{byte(MsgAck), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{10, 10, 0, 0, 0, 0, 0, 0, 0, 20, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{10, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(MsgLost), 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{byte(MsgSeqEvent), 1, 2, 3})
	f.Add(AppendSeqEvent(nil, 5, []byte{0xfe, 0xfd}))
	// Stream-start corruption: a truncated epoch and the forbidden zero
	// epoch (the receiver-side "no stream adopted" sentinel).
	f.Add([]byte{byte(MsgStreamStart), 1, 2})
	f.Add([]byte{byte(MsgStreamStart), 0, 0, 0, 0, 0, 0, 0, 0})
	// Objects nested one level past the bound: the decoder must refuse
	// them instead of recursing toward a stack overflow.
	f.Add(nestedFrame(maxValueDepth + 1))
	// Frames truncated inside each scalar field: every proper prefix of a
	// compact raw event, continuation and feedback frame, so each u32/u64
	// length, count and value is cut at every byte.
	compact := mir.NewObject("ImageData")
	compact.Fields["buff"] = mir.Bytes{1, 2}
	compact.Fields["width"] = mir.Int(300)
	for _, m := range []any{
		&Raw{Handler: "p", Seq: 1 << 40, Event: compact},
		&Continuation{Handler: "p", Seq: 3, PSEID: 2, ResumeNode: 4, ModWork: 9,
			Vars: map[string]mir.Value{"o": compact, "f": mir.Float(0.5), "a": mir.IntArray{-1},
				"g": mir.FloatArray{2}, "b": mir.Bool(true), "s": mir.Str("x")}},
		&Feedback{Handler: "p", PlanVersion: 2, Stats: []PSEStat{{ID: 1, Count: 5, Bytes: 10, Failures: 2}}},
	} {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		for cut := 1; cut < len(data); cut++ {
			f.Add(data[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err == nil && msg == nil {
			t.Fatalf("Unmarshal(%x): nil message with nil error", data)
		}
	})
}
