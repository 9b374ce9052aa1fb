package wire

import (
	"bytes"
	"testing"

	"methodpart/internal/mir"
)

func eventFrames(t testing.TB) [][]byte {
	t.Helper()
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 32)
	ev.Fields["width"] = mir.Int(8)
	raw, err := Marshal(&Raw{Seq: 1, Event: ev})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Marshal(&Continuation{Seq: 2, PSEID: 1, ResumeNode: 5, Vars: slotsOf(ev, mir.Int(7))})
	if err != nil {
		t.Fatal(err)
	}
	return [][]byte{raw, cont}
}

// TestBatchRoundTrip: a batch of event frames survives Marshal/Unmarshal
// with every entry byte-identical, and AppendBatch produces the same wire
// bytes as Marshal(&Batch{...}).
func TestBatchRoundTrip(t *testing.T) {
	entries := eventFrames(t)
	data, err := Marshal(&Batch{Entries: entries})
	if err != nil {
		t.Fatal(err)
	}
	if got := AppendBatch(nil, entries); !bytes.Equal(got, data) {
		t.Fatalf("AppendBatch disagrees with Marshal:\n%x\n%x", got, data)
	}
	msg, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := msg.(*Batch)
	if !ok {
		t.Fatalf("Unmarshal returned %T, want *Batch", msg)
	}
	if len(b.Entries) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(b.Entries), len(entries))
	}
	for i := range entries {
		if !bytes.Equal(b.Entries[i], entries[i]) {
			t.Fatalf("entry %d mismatch", i)
		}
		inner, err := Unmarshal(b.Entries[i])
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		switch inner.(type) {
		case *Raw, *Continuation:
		default:
			t.Fatalf("entry %d decoded to %T", i, inner)
		}
	}
}

// TestBatchDecodeClamps: corrupt counts and entry lengths must fail with an
// error before any allocation the input cannot back.
func TestBatchDecodeClamps(t *testing.T) {
	cases := map[string][]byte{
		"truncated header":     {byte(MsgBatch), 1, 0},
		"count exceeds input":  {byte(MsgBatch), 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0, 1},
		"length exceeds input": {byte(MsgBatch), 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 1},
		"empty entry":          {byte(MsgBatch), 1, 0, 0, 0, 0, 0, 0, 0},
		"trailing bytes":       append(AppendBatch(nil, [][]byte{{byte(MsgHeartbeat)}}), 0xaa),
		"entry hdr truncated":  {byte(MsgBatch), 2, 0, 0, 0, 1, 0, 0, 0, 6, 0xff},
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestValueDecodeClamps: embedded length prefixes inside a value payload
// (object field counts, array lengths) are clamped against the remaining
// input rather than trusted.
func TestValueDecodeClamps(t *testing.T) {
	// Raw frame, zero seq, object with an empty class name and a poisoned
	// field count.
	obj := []byte{byte(MsgRaw), 0, tagObject, 0, 0xff, 0xff, 0xff, 0x7f}
	if _, err := unmarshalAll(obj, nil); err == nil {
		t.Error("poisoned object field count decoded without error")
	}
	arr := []byte{byte(MsgRaw), 0, tagIntArray, 0xff, 0xff, 0xff, 0x7f}
	if _, err := unmarshalAll(arr, nil); err == nil {
		t.Error("poisoned int-array length decoded without error")
	}
	// A continuation claiming more slots than its bytes hold.
	cont := []byte{byte(MsgContinuation), 2, 1, 0, 0x7f, tagNull}
	if _, err := unmarshalAll(cont, nil); err == nil {
		t.Error("poisoned slot count decoded without error")
	}
}

// TestAppendMarshalZeroAllocs pins the pooled encode path: appending a
// message into a recycled buffer must not allocate at steady state. This is
// the per-event cost of the batched send pipeline, so it is guarded in CI
// next to the observability allocation budgets.
func TestAppendMarshalZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, path is not allocation-free")
	}
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 64)
	ev.Fields["width"] = mir.Int(8)
	ev.Fields["height"] = mir.Int(8)
	msg := &Raw{Seq: 1, Event: ev, Schema: imageSchema()}
	buf := make([]byte, 0, 4096)
	// Warm the pool (first use sizes the encoder buffer and maps).
	var err error
	if buf, err = AppendMarshal(buf[:0], msg); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		buf, err = AppendMarshal(buf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendMarshal allocates %.1f per message, want 0", n)
	}
	hb := &Heartbeat{Seq: 9}
	if n := testing.AllocsPerRun(200, func() {
		buf, err = AppendMarshal(buf[:0], hb)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendMarshal heartbeat allocates %.1f per message, want 0", n)
	}
}

// TestAppendBatchZeroAllocs pins the batch-frame assembly: wrapping already
// encoded entries into one wire frame reuses the destination buffer.
func TestAppendBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, path is not allocation-free")
	}
	entries := eventFrames(t)
	buf := AppendBatch(make([]byte, 0, 4096), entries)
	if n := testing.AllocsPerRun(200, func() {
		buf = AppendBatch(buf[:0], entries)
	}); n != 0 {
		t.Fatalf("AppendBatch allocates %.1f per batch, want 0", n)
	}
}

func BenchmarkMarshalRaw(b *testing.B) {
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 256)
	ev.Fields["width"] = mir.Int(16)
	msg := &Raw{Seq: 1, Event: ev, Schema: imageSchema()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendMarshalRaw(b *testing.B) {
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 256)
	ev.Fields["width"] = mir.Int(16)
	msg := &Raw{Seq: 1, Event: ev, Schema: imageSchema()}
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = AppendMarshal(buf[:0], msg); err != nil {
			b.Fatal(err)
		}
	}
}
