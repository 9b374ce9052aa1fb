package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"methodpart/internal/mir"
)

// imageSchema declares the ImageData class the test events use.
func imageSchema() *Schema {
	return NewSchema(mir.MustClassTable(mir.ClassDef{Name: "ImageData", Fields: []mir.FieldDef{
		{Name: "width", Kind: mir.KindInt},
		{Name: "height", Kind: mir.KindInt},
		{Name: "buff", Kind: mir.KindBytes},
	}}))
}

// slotsOf wraps values as continuation slots, in order.
func slotsOf(vs ...mir.Value) []Slot {
	out := make([]Slot, len(vs))
	for i, v := range vs {
		out[i] = ValueSlot(v)
	}
	return out
}

// decodeBody decodes the value part of a decoded event message under s: a
// Raw's event, or a Continuation's slots (as many as the frame declares).
// Other messages come back unchanged.
func decodeBody(msg any, s *Schema) (any, error) {
	switch m := msg.(type) {
	case *Raw:
		return m.DecodeEvent(s)
	case *Continuation:
		n, k := binary.Uvarint(m.body)
		if k <= 0 {
			return nil, errors.New("bad slot count")
		}
		return m.DecodeVars(s, int(n), nil)
	}
	return msg, nil
}

// unmarshalAll is Unmarshal followed by decodeBody.
func unmarshalAll(data []byte, s *Schema) (any, error) {
	msg, err := Unmarshal(data)
	if err != nil {
		return nil, err
	}
	return decodeBody(msg, s)
}

// TestDeclaredClassLayout: an object of a declared class travels as its
// class index and its field values in declared order — no class or field
// names — and decodes back under the same schema; without a schema the
// frame refuses to decode.
func TestDeclaredClassLayout(t *testing.T) {
	s := imageSchema()
	ev := mir.NewObject("ImageData")
	ev.Fields["width"] = mir.Int(16)
	ev.Fields["height"] = mir.Int(-3)
	ev.Fields["buff"] = mir.Bytes{9, 8, 7}
	data, err := Marshal(&Raw{Seq: 5, Event: ev, Schema: s})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{byte(MsgRaw), 5, tagClass, 0, tagInt, 32, tagInt, 5, tagBytes, 3, 9, 8, 7}
	if !bytes.Equal(data, want) {
		t.Fatalf("frame %x, want %x", data, want)
	}
	if got := (&Raw{Seq: 5, Event: ev, Schema: s}).FrameSize(); got != int64(len(data)) {
		t.Fatalf("FrameSize %d, encoded %d", got, len(data))
	}
	got, err := unmarshalAll(data, s)
	if err != nil {
		t.Fatal(err)
	}
	if !mir.Equal(got.(mir.Value), ev) {
		t.Fatalf("decoded %v, want %v", got, ev)
	}
	if _, err := unmarshalAll(data, nil); !errors.Is(err, errNoSchema) {
		t.Fatalf("decode without schema: %v, want errNoSchema", err)
	}
	// Class index past the schema's table.
	bad := append([]byte(nil), data...)
	bad[3] = 7
	if _, err := unmarshalAll(bad, s); err == nil {
		t.Fatal("out-of-range class index decoded")
	}
}

// TestUndeclaredShapesKeepTaggedForm: an undeclared class, a declared
// class with a field missing or an extra field, and any object encoded
// without a schema spell out class and field names, and decode with or
// without the schema.
func TestUndeclaredShapesKeepTaggedForm(t *testing.T) {
	s := imageSchema()
	other := mir.NewObject("Other")
	other.Fields["width"] = mir.Int(1)
	missing := mir.NewObject("ImageData")
	missing.Fields["width"] = mir.Int(1)
	extra := mir.NewObject("ImageData")
	extra.Fields["width"] = mir.Int(1)
	extra.Fields["height"] = mir.Int(1)
	extra.Fields["buff"] = mir.Bytes{}
	extra.Fields["note"] = mir.Str("x")
	for _, c := range []struct {
		name   string
		v      *mir.Object
		schema *Schema
	}{
		{"undeclared", other, s},
		{"missing field", missing, s},
		{"extra field", extra, s},
		{"no schema", extra, nil},
	} {
		data, err := Marshal(&Raw{Seq: 1, Event: c.v, Schema: c.schema})
		if err != nil {
			t.Fatal(err)
		}
		if data[2] != tagObject {
			t.Errorf("%s: value tag %d, want tagObject", c.name, data[2])
		}
		for _, dec := range []*Schema{nil, s} {
			got, err := unmarshalAll(data, dec)
			if err != nil || !mir.Equal(got.(mir.Value), c.v) {
				t.Errorf("%s: decoded %v, %v", c.name, got, err)
			}
		}
	}
}

// TestContinuationSlots: a continuation is (PSE id, seq, ModWork, slots in
// order) with an absent marker for an unset register; the slots decode
// back unboxed, an object aliased by two slots decodes to one shared
// object, and the slot count must match what the receiver expects.
func TestContinuationSlots(t *testing.T) {
	s := imageSchema()
	img := mir.NewObject("ImageData")
	img.Fields["width"] = mir.Int(300)
	img.Fields["height"] = mir.Int(2)
	img.Fields["buff"] = make(mir.Bytes, 4)
	vars := []Slot{
		{Kind: SlotInt, I: 1 << 40},
		{},
		{Kind: SlotValue, V: img},
		{Kind: SlotBool, I: 1},
		{Kind: SlotFloat, F: -0.5},
		{Kind: SlotValue, V: img},
	}
	c := &Continuation{Seq: 300, PSEID: 3, ModWork: 42, Vars: vars, Schema: s}
	data, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.FrameSize(); got != int64(len(data)) {
		t.Fatalf("FrameSize %d, encoded %d", got, len(data))
	}
	msg, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Continuation)
	if got.Seq != 300 || got.PSEID != 3 || got.ModWork != 42 || got.Vars != nil {
		t.Fatalf("header %+v", got)
	}
	if got.FrameSize() != int64(len(data)) {
		t.Fatalf("decoded FrameSize %d, encoded %d", got.FrameSize(), len(data))
	}
	dec, err := got.DecodeVars(s, len(vars), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vars {
		if dec[i].Kind != vars[i].Kind || !mir.Equal(dec[i].Value(), vars[i].Value()) {
			t.Errorf("slot %d = %+v, want %+v", i, dec[i], vars[i])
		}
	}
	if dec[2].V != dec[5].V {
		t.Error("aliased object decoded into two objects")
	}
	if _, err := got.DecodeVars(s, len(vars)-1, nil); !errors.Is(err, ErrSlotCount) {
		t.Errorf("short layout: %v, want ErrSlotCount", err)
	}
	// A forced split names its edge after the negative PSE id.
	f := &Continuation{Seq: 1, PSEID: -1, Forced: 200, Vars: slotsOf(mir.Int(1))}
	data, err = Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if f.FrameSize() != int64(len(data)) {
		t.Fatalf("forced FrameSize %d, encoded %d", f.FrameSize(), len(data))
	}
	msg, err = Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if g := msg.(*Continuation); g.PSEID != -1 || g.Forced != 200 {
		t.Fatalf("forced split decoded as pse %d edge %d", g.PSEID, g.Forced)
	}
}

// TestDecodedMessagesReencode: a decoded event message marshals back to
// the same bytes without decoding its body, as a pass-through relay
// forwards it.
func TestDecodedMessagesReencode(t *testing.T) {
	s := imageSchema()
	for _, m := range []any{
		&Raw{Seq: 9, Event: smallFrame(), Schema: s},
		&Continuation{Seq: 2, PSEID: 1, ModWork: 7, Vars: slotsOf(smallFrame(), nil), Schema: s},
	} {
		data, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%T re-encoded to %x, want %x", m, again, data)
		}
	}
}
