package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"methodpart/internal/mir"
)

// smallFrame is the small-reliable workload's event: a 16x16 ImageData
// whose integer fields fit the runtime's cache of boxed small values.
func smallFrame() *mir.Object {
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 16*16)
	ev.Fields["width"] = mir.Int(16)
	ev.Fields["height"] = mir.Int(16)
	return ev
}

// TestUnmarshalAllocs pins the receive path's allocations exactly: the
// decoder itself, its back-reference table, every integer field and every
// registered name cost nothing; what remains is what the handler receives.
// A map costs two objects (header and first group), and a Bytes payload two
// (its backing array, and the slice header boxed into an mir.Value).
func TestUnmarshalAllocs(t *testing.T) {
	InternNames("push", "ImageData", "width", "height", "buff", "r2", "z0")
	ev := smallFrame()
	raw, err := Marshal(&Raw{Handler: "push", Seq: 1, Event: ev})
	if err != nil {
		t.Fatal(err)
	}
	seqFrame := AppendSeqEvent(nil, 7, raw)
	cont, err := Marshal(&Continuation{Handler: "push", Seq: 2, PSEID: 1, ResumeNode: 3,
		Vars: map[string]mir.Value{"r2": ev, "z0": mir.Bool(true)}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		fn   func() (any, error)
		want float64
	}{
		// SeqEvent (1) + Raw (1) + Object (1) + field map (2) + buff (2).
		{"seq-wrapped raw", func() (any, error) {
			m, err := Unmarshal(seqFrame)
			if err != nil {
				return nil, err
			}
			return Unmarshal(m.(*SeqEvent).Payload)
		}, 7},
		// Continuation (1) + var map (2) + Object (1) + field map (2) +
		// buff (2); the Bool is a cached boxed value.
		{"continuation", func() (any, error) { return Unmarshal(cont) }, 8},
	}
	for _, c := range cases {
		if _, err := c.fn(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.fn(); err != nil {
				t.Fatal(err)
			}
		}); n != c.want {
			t.Errorf("Unmarshal %s allocates %.1f, want exactly %.0f", c.name, n, c.want)
		}
	}
}

// TestSizeOfSteadyStateAllocs: sizing draws a pooled Sizer whose tables
// keep their capacity, so pricing a message allocates nothing.
func TestSizeOfSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, path is not allocation-free")
	}
	ev := smallFrame()
	ev.Fields["self"] = ev
	want := SizeOf(ev)
	if n := testing.AllocsPerRun(200, func() {
		if got := SizeOf(ev); got != want {
			t.Fatalf("SizeOf = %d, want %d", got, want)
		}
	}); n != 0 {
		t.Fatalf("SizeOf allocates %.1f per call, want 0", n)
	}
}

// TestDecodedArraysDoNotAliasInput: a handler may mutate the arrays it
// receives while the frame they came from is retained (dead-letter
// quarantine, replay), so decoded arrays must be copies. Overwriting the
// input after decoding must leave every decoded value unchanged.
func TestDecodedArraysDoNotAliasInput(t *testing.T) {
	ev := mir.NewObject("Blob")
	ev.Fields["b"] = mir.Bytes{1, 2, 3, 4}
	ev.Fields["i"] = mir.IntArray{-5, 6, 1 << 40}
	ev.Fields["f"] = mir.FloatArray{0.5, -2.25}
	data, err := Marshal(&Raw{Handler: "h", Seq: 1, Event: ev})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xa5
	}
	got := msg.(*Raw).Event
	if !mir.Equal(got, ev) {
		t.Fatalf("decoded event changed with its input: %v", got.(*mir.Object).Fields)
	}
}

// TestDecodeNeverGrowsInternTable: only compiled programs register names;
// decoding random and corrupt input, including names never seen before,
// must leave the table as it was.
func TestDecodeNeverGrowsInternTable(t *testing.T) {
	InternNames("push", "ImageData", "width")
	before := InternedNames()
	rng := rand.New(rand.NewSource(1))
	ev := smallFrame()
	ev.Fields["novel-field"] = mir.Int(1)
	valid, err := Marshal(&Continuation{Handler: "never-compiled", Seq: 2, PSEID: 1,
		Vars: map[string]mir.Value{"novel-var": ev}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(valid); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), valid...)
		mut[rng.Intn(len(mut))] ^= byte(rng.Intn(255) + 1)
		_, _ = Unmarshal(mut)
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		_, _ = Unmarshal(junk)
	}
	if got := InternedNames(); got != before {
		t.Fatalf("decoding changed the intern table from %d to %d names", before, got)
	}
}

// TestInternTableBounded: registering more distinct names than InternCap
// keeps the table within the cap, and the newest names stay interned.
func TestInternTableBounded(t *testing.T) {
	for i := 0; i < InternCap+100; i++ {
		InternNames("bound-" + string(rune('a'+i%26)) + itoa(i))
		if n := InternedNames(); n > InternCap {
			t.Fatalf("intern table holds %d names, cap %d", n, InternCap)
		}
	}
	last := "bound-" + string(rune('a'+(InternCap+99)%26)) + itoa(InternCap+99)
	if _, ok := lookupName([]byte(last)); !ok {
		t.Fatalf("newest name %q not interned", last)
	}
	big := make([]string, InternCap+10)
	for i := range big {
		big[i] = "batch-" + itoa(i)
	}
	InternNames(big...)
	if n := InternedNames(); n > InternCap {
		t.Fatalf("one oversized batch left %d names, cap %d", n, InternCap)
	}
}

func itoa(i int) string { return mir.Int(int64(i)).String() }

// TestInternedNameDecodesShared: a registered name decodes to the table's
// copy, an unregistered one to a fresh string.
func TestInternedNameDecodesShared(t *testing.T) {
	InternNames("shared-handler")
	shared, _ := lookupName([]byte("shared-handler"))
	for _, name := range []string{"shared-handler", "unshared-handler"} {
		frame, err := Marshal(&Nack{Handler: name, Seq: 1, PSEID: 1, Class: NackRuntime})
		if err != nil {
			t.Fatal(err)
		}
		msg, err := Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		got := msg.(*Nack).Handler
		if got != name {
			t.Fatalf("handler decoded as %q, want %q", got, name)
		}
		if isShared := unsafe.StringData(got) == unsafe.StringData(shared); isShared != (name == shared) {
			t.Errorf("%q: shares the interned copy = %v, want %v", name, isShared, name == shared)
		}
	}
}

// TestTruncationErrors pins the decoder's short-input contract, inherited
// from io.ReadFull: a frame cut at a field boundary fails with io.EOF, one
// cut inside a scalar field with io.ErrUnexpectedEOF.
func TestTruncationErrors(t *testing.T) {
	data, err := Marshal(&Raw{Handler: "h", Seq: 1 << 50, Event: mir.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	// tag(1) + name length(4) + "h"(1) = 6 bytes before the u64 Seq.
	const seqAt = 6
	if _, err := Unmarshal(data[:seqAt]); !errors.Is(err, io.EOF) {
		t.Errorf("cut before Seq: err = %v, want io.EOF", err)
	}
	for cut := seqAt + 1; cut < seqAt+8; cut++ {
		if _, err := Unmarshal(data[:cut]); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut %d bytes into Seq: err = %v, want io.ErrUnexpectedEOF", cut-seqAt, err)
		}
	}
	// The event's value tag, then inside its u64.
	if _, err := Unmarshal(data[:seqAt+8]); !errors.Is(err, io.EOF) {
		t.Errorf("cut before the event: err = %v, want io.EOF", err)
	}
	if _, err := Unmarshal(data[:seqAt+8+1+3]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("cut inside the event's int: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// randomGraph builds an object graph over a few shared objects and arrays,
// inserting fields in a seed-dependent order so map layouts differ.
func randomGraph(rng *rand.Rand) mir.Value {
	shared := []mir.Value{
		mir.Bytes(make([]byte, rng.Intn(40))),
		mir.IntArray(make([]int64, rng.Intn(6))),
		mir.FloatArray(make([]float64, 1+rng.Intn(6))),
	}
	objs := make([]*mir.Object, 2+rng.Intn(5))
	for i := range objs {
		objs[i] = mir.NewObject("C" + itoa(rng.Intn(3)))
		shared = append(shared, objs[i])
	}
	leaf := func() mir.Value {
		switch rng.Intn(6) {
		case 0:
			return mir.Int(rng.Int63())
		case 1:
			return mir.Str("s" + itoa(rng.Intn(100)))
		case 2:
			return mir.Bool(rng.Intn(2) == 0)
		case 3:
			return mir.Null{}
		default:
			return shared[rng.Intn(len(shared))]
		}
	}
	for _, o := range objs {
		n := rng.Intn(6)
		for _, k := range rng.Perm(n) {
			o.Fields["f"+itoa(k)] = leaf()
		}
	}
	return objs[0]
}

// TestSizeOfMatchesEncodedLength: the Sizer visits fields in map order,
// the Encoder in sorted order; with shared references either way must
// price the same bytes. Each graph is sized repeatedly, so Go's randomised
// map iteration visits its fields in varied orders.
func TestSizeOfMatchesEncodedLength(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		v := randomGraph(rng)
		e := NewEncoder()
		if err := e.EncodeValue(v); err != nil {
			t.Fatal(err)
		}
		want := int64(e.Len())
		for rep := 0; rep < 8; rep++ {
			if got := SizeOf(v); got != want {
				t.Fatalf("graph %d rep %d: SizeOf = %d, encoded length %d", i, rep, got, want)
			}
		}
		// A group sharing references across values, as a continuation's
		// variables do.
		w := randomGraph(rng)
		group := []mir.Value{v, w, v}
		e = NewEncoder()
		for _, x := range group {
			if err := e.EncodeValue(x); err != nil {
				t.Fatal(err)
			}
		}
		if got := SizeOfAll(group); got != int64(e.Len()) {
			t.Fatalf("graph %d: SizeOfAll = %d, encoded length %d", i, got, e.Len())
		}
	}
}

// TestInternConcurrentWithDecode: compiles register names while other
// goroutines decode. Registrations cycle past InternCap so the table also
// restarts under the decoders; every decoded name must stay intact.
func TestInternConcurrentWithDecode(t *testing.T) {
	frames := make([][]byte, 8)
	for i := range frames {
		var err error
		if frames[i], err = Marshal(&Nack{Handler: "conc-" + itoa(i), Seq: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < InternCap+len(frames); i++ {
				InternNames("conc-"+itoa(i%len(frames)), "fill-"+itoa(g)+"-"+itoa(i))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				m, err := Unmarshal(frames[i%len(frames)])
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := m.(*Nack).Handler, "conc-"+itoa(i%len(frames)); got != want {
					t.Errorf("decoded handler %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// nestedClaimFrame is a Raw frame whose event nests levels objects, each
// with an empty class and one empty-named field holding the next, and each
// claiming as many fields as the per-level clamp admits. It ends inside
// the innermost object, so decoding fails after every level was opened.
func nestedClaimFrame(levels int) []byte {
	const perLevel = 1 + 4 + 4 + 4 // tag, class length, count, field name length
	head := []byte{byte(MsgRaw), 1, 0, 0, 0, 'h', 0, 0, 0, 0, 0, 0, 0, 0}
	frame := append([]byte(nil), head...)
	body := levels * perLevel
	for i := 0; i < levels; i++ {
		remaining := body - i*perLevel - 9 // after this level's count
		frame = append(frame, tagObject)
		frame = binary.LittleEndian.AppendUint32(frame, 0)
		frame = binary.LittleEndian.AppendUint32(frame, uint32(remaining/5))
		frame = binary.LittleEndian.AppendUint32(frame, 0)
	}
	return frame
}

// decodeAllocBytes reports the fewest bytes one Unmarshal of frame
// allocated over a few runs, so a stray allocation elsewhere in the
// process does not count.
func decodeAllocBytes(t *testing.T, frame []byte) uint64 {
	t.Helper()
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		if _, err := Unmarshal(frame); err == nil {
			t.Fatal("truncated nested frame decoded without error")
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestNestedFieldCountsAllocateLinearly: a field count is clamped to what
// the remaining input could hold, but that clamp holds per nesting level.
// If the count sized each field map, every level of a deep frame would
// claim most of the frame and the decoder would commit memory quadratic in
// the frame's length before failing. Memory must stay proportional to the
// input: the same bytes per input byte at 4x the depth.
func TestNestedFieldCountsAllocateLinearly(t *testing.T) {
	small, large := nestedClaimFrame(500), nestedClaimFrame(2000)
	perByteSmall := float64(decodeAllocBytes(t, small)) / float64(len(small))
	perByteLarge := float64(decodeAllocBytes(t, large)) / float64(len(large))
	t.Logf("allocated %.1f B per input byte at 500 levels, %.1f at 2000", perByteSmall, perByteLarge)
	const maxPerByte = 64
	if perByteLarge > maxPerByte {
		t.Errorf("decoding a %d-byte nested frame allocated %.0f B per input byte, want <= %d",
			len(large), perByteLarge, maxPerByte)
	}
	if perByteLarge > 2*perByteSmall {
		t.Errorf("bytes allocated per input byte grew from %.1f to %.1f at 4x the depth, want linear",
			perByteSmall, perByteLarge)
	}
}
