package wire

import (
	"testing"
	"testing/quick"

	"methodpart/internal/mir"
)

// TestUnmarshalNeverPanicsOnTruncation: every proper prefix of a valid
// message must fail cleanly (no panic, no bogus success with trailing
// semantics).
func TestUnmarshalNeverPanicsOnTruncation(t *testing.T) {
	ev := mir.NewObject("ImageData")
	ev.Fields["buff"] = make(mir.Bytes, 100)
	ev.Fields["width"] = mir.Int(10)
	msgs := []any{
		&Raw{Seq: 1, Event: ev},
		&Continuation{Seq: 2, PSEID: 1, Vars: slotsOf(ev, mir.Int(1))},
		&Feedback{Handler: "h", Stats: []PSEStat{{ID: 1, Count: 5, Bytes: 10, Failures: 2}}},
		&Plan{Handler: "h", Version: 1, Split: []int32{1}, Profile: []int32{0, 1}},
		&Subscribe{Subscriber: "s", Handler: "h", Source: "src", CostModel: "datasize", Natives: []string{"n"}},
		&Nack{Handler: "h", Seq: 3, PSEID: 2, Class: NackRestore},
	}
	for _, m := range msgs {
		data, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%T truncated at %d panicked: %v", m, cut, r)
					}
				}()
				_, _ = unmarshalAll(data[:cut], nil)
			}()
		}
	}
}

// TestUnmarshalNeverPanicsOnMutation: single-byte corruptions either decode
// to something or error — never panic, never allocate absurd amounts.
func TestUnmarshalNeverPanicsOnMutation(t *testing.T) {
	cont := &Continuation{Seq: 9, PSEID: 2, Vars: slotsOf(mir.IntArray{1, 2, 3}, mir.Str("hello"), smallFrame()),
		Schema: imageSchema()}
	data, err := Marshal(cont)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos uint16, val byte) bool {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[int(pos)%len(mut)] ^= val | 1
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("mutation at %d panicked: %v", int(pos)%len(mut), r)
			}
		}()
		_, _ = unmarshalAll(mut, imageSchema())
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDecoderLengthGuards: absurd length prefixes must be rejected before
// allocation.
func TestDecoderLengthGuards(t *testing.T) {
	// tagStr with length 2^35-1 and no payload.
	d := NewDecoder([]byte{tagStr, 0xff, 0xff, 0xff, 0xff, 0x7f}, nil)
	if _, err := d.DecodeValue(); err == nil {
		t.Error("oversized string accepted")
	}
	d = NewDecoder([]byte{tagIntArray, 0xff, 0xff, 0xff, 0x7f}, nil)
	if _, err := d.DecodeValue(); err == nil {
		t.Error("oversized int array accepted")
	}
	d = NewDecoder([]byte{tagBytes, 0xff, 0xff, 0x03, 1, 2}, nil)
	if _, err := d.DecodeValue(); err == nil {
		t.Error("oversized bytes accepted")
	}
}
