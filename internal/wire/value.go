// Package wire implements the binary on-the-wire representation of MIR
// values, continuation messages and the control messages (profiling feedback
// and partitioning plans) exchanged between modulator and demodulator sides.
//
// Object and array values are encoded with reference sharing: the first
// occurrence carries the payload, later occurrences a 5-byte back-reference.
// This matches the paper's data-size cost definition (§4.1): "the total
// runtime size of the unique objects reachable ... plus the total number of
// duplicated references to those unique objects".
//
// Integers and lengths are varints. An object of a class the program
// declares travels as its class index and its field values in declared
// order (see Schema); any other object spells out its class and field
// names.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"methodpart/internal/mir"
)

// Value tag bytes.
const (
	tagNull byte = iota + 1
	tagBool
	tagInt
	tagFloat
	tagStr
	tagBytes
	tagIntArray
	tagFloatArray
	tagObject
	tagRef
	// tagClass is an object of a declared class: class index, then the
	// field values in declared order.
	tagClass
	// tagAbsent is an unset register in a continuation slot; it appears
	// only at a slot's top level.
	tagAbsent
)

// maxFieldHint caps the size hint a decoded object's field count gives its
// field map: the count is peer-supplied, and a map made for at most one
// group of slots costs no more than an unhinted one until fields arrive.
const maxFieldHint = 8

// maxValueDepth bounds how many objects a value may nest. Encoding and
// decoding recurse once per level, so an unbounded peer-supplied nesting
// would exhaust the goroutine stack, a fatal error no recover contains.
// The encoder refuses exactly what the decoder refuses, so a sender never
// ships a frame its receiver rejects.
const maxValueDepth = 4096

var errValueTooDeep = fmt.Errorf("wire: value nests more than %d objects", maxValueDepth)

// errNoSchema reports a declared-class object decoded without the layout it
// was encoded under.
var errNoSchema = errors.New("wire: declared-class object without a schema")

// SlotKind tags the representation of one continuation slot.
type SlotKind uint8

// Slot kinds. Ints, floats and bools travel unboxed, so neither end boxes
// a register to ship it.
const (
	// SlotAbsent is an unset register.
	SlotAbsent SlotKind = iota
	// SlotInt holds an int in I.
	SlotInt
	// SlotFloat holds a float in F.
	SlotFloat
	// SlotBool holds a bool in I (0 or 1).
	SlotBool
	// SlotValue holds any other value in V.
	SlotValue
)

// Slot is one live variable of a continuation, in the position its PSE's
// variable list gives it.
type Slot struct {
	Kind SlotKind
	I    int64
	F    float64
	V    mir.Value
}

// ValueSlot wraps v as a slot, unboxing the scalar kinds; nil is absent.
func ValueSlot(v mir.Value) Slot {
	switch x := v.(type) {
	case nil:
		return Slot{}
	case mir.Int:
		return Slot{Kind: SlotInt, I: int64(x)}
	case mir.Float:
		return Slot{Kind: SlotFloat, F: float64(x)}
	case mir.Bool:
		if x {
			return Slot{Kind: SlotBool, I: 1}
		}
		return Slot{Kind: SlotBool}
	default:
		return Slot{Kind: SlotValue, V: v}
	}
}

// Value boxes the slot's value; nil when absent.
func (s Slot) Value() mir.Value {
	switch s.Kind {
	case SlotInt:
		return mir.Int(s.I)
	case SlotFloat:
		return mir.Float(s.F)
	case SlotBool:
		return mir.Bool(s.I != 0)
	case SlotValue:
		return s.V
	default:
		return nil
	}
}

// Encoder serialises MIR values with reference deduplication. One Encoder
// encodes one message; references are shared across all values written
// through it. Reset makes an Encoder reusable across messages (the pooled
// Marshal/AppendMarshal path relies on this), retaining the buffer and map
// capacity so steady-state encoding allocates nothing.
type Encoder struct {
	w       *bytes.Buffer
	schema  *Schema
	objSeen map[*mir.Object]uint32
	memSeen map[memKey]uint32
	nextRef uint32
	// depth is how many objects enclose the value being written.
	depth int
	// names is a scratch slice for sorting field names with stack
	// discipline: each (possibly nested) use appends its names after the
	// ones already in flight and truncates back when done, so recursion
	// reuses one allocation.
	names   []string
	scratch [binary.MaxVarintLen64]byte
}

type memKey struct {
	ptr uintptr
	len int
	tag byte
}

// NewEncoder creates an encoder writing to an internal buffer. Objects of
// the classes s declares take the compiled layout; a nil s writes every
// object in the tagged form.
func NewEncoder(s *Schema) *Encoder {
	return &Encoder{
		w:       &bytes.Buffer{},
		schema:  s,
		objSeen: make(map[*mir.Object]uint32),
		memSeen: make(map[memKey]uint32),
	}
}

// Reset clears the encoded output, the schema and the reference tables
// while keeping their capacity, so the encoder can serialise another
// message without reallocating.
func (e *Encoder) Reset() {
	e.w.Reset()
	e.schema = nil
	clear(e.objSeen)
	clear(e.memSeen)
	e.nextRef = 0
	e.depth = 0
	e.names = e.names[:0]
}

// Bytes returns the encoded output.
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return e.w.Len() }

func (e *Encoder) writeU32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch[:4], v)
	e.w.Write(e.scratch[:4])
}

func (e *Encoder) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch[:8], v)
	e.w.Write(e.scratch[:8])
}

func (e *Encoder) writeUvarint(v uint64) {
	n := binary.PutUvarint(e.scratch[:], v)
	e.w.Write(e.scratch[:n])
}

func (e *Encoder) writeVarint(v int64) {
	n := binary.PutVarint(e.scratch[:], v)
	e.w.Write(e.scratch[:n])
}

// writeString writes a control-frame string: a u32 length and the bytes.
func (e *Encoder) writeString(s string) {
	e.writeU32(uint32(len(s)))
	e.w.WriteString(s)
}

// writeVarString writes a value-level string: a varint length and the
// bytes.
func (e *Encoder) writeVarString(s string) {
	e.writeUvarint(uint64(len(s)))
	e.w.WriteString(s)
}

// EncodeSlot appends one continuation slot.
func (e *Encoder) EncodeSlot(s Slot) error {
	switch s.Kind {
	case SlotAbsent:
		e.w.WriteByte(tagAbsent)
	case SlotInt:
		e.w.WriteByte(tagInt)
		e.writeVarint(s.I)
	case SlotFloat:
		e.w.WriteByte(tagFloat)
		e.writeU64(math.Float64bits(s.F))
	case SlotBool:
		e.w.WriteByte(tagBool)
		e.w.WriteByte(byte(s.I & 1))
	case SlotValue:
		return e.EncodeValue(s.V)
	default:
		return fmt.Errorf("wire: cannot encode slot kind %d", s.Kind)
	}
	return nil
}

// EncodeValue appends one value.
func (e *Encoder) EncodeValue(v mir.Value) error {
	if v == nil {
		e.w.WriteByte(tagNull)
		return nil
	}
	switch x := v.(type) {
	case mir.Null:
		e.w.WriteByte(tagNull)
	case mir.Bool:
		e.w.WriteByte(tagBool)
		if x {
			e.w.WriteByte(1)
		} else {
			e.w.WriteByte(0)
		}
	case mir.Int:
		e.w.WriteByte(tagInt)
		e.writeVarint(int64(x))
	case mir.Float:
		e.w.WriteByte(tagFloat)
		e.writeU64(math.Float64bits(float64(x)))
	case mir.Str:
		e.w.WriteByte(tagStr)
		e.writeVarString(string(x))
	case mir.Bytes:
		if e.writeSliceRef(tagBytes, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagBytes)
		e.writeUvarint(uint64(len(x)))
		e.w.Write(x)
		e.claimRef(tagBytes, slicePtr(x), len(x))
	case mir.IntArray:
		if e.writeSliceRef(tagIntArray, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagIntArray)
		e.writeUvarint(uint64(len(x)))
		for _, n := range x {
			e.writeU64(uint64(n))
		}
		e.claimRef(tagIntArray, slicePtr(x), len(x))
	case mir.FloatArray:
		if e.writeSliceRef(tagFloatArray, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagFloatArray)
		e.writeUvarint(uint64(len(x)))
		for _, f := range x {
			e.writeU64(math.Float64bits(f))
		}
		e.claimRef(tagFloatArray, slicePtr(x), len(x))
	case *mir.Object:
		return e.encodeObject(x)
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
	}
	return nil
}

// encodeObject writes an object: a back-reference when already written,
// else the declared-class layout when the schema has one for it, else the
// tagged form with sorted field names.
func (e *Encoder) encodeObject(x *mir.Object) error {
	if x == nil {
		e.w.WriteByte(tagNull)
		return nil
	}
	if ref, ok := e.objSeen[x]; ok {
		e.w.WriteByte(tagRef)
		e.writeU32(ref)
		return nil
	}
	if e.depth == maxValueDepth {
		return errValueTooDeep
	}
	e.objSeen[x] = e.nextRef
	e.nextRef++
	e.depth++
	defer func() { e.depth-- }()
	if idx, cl, ok := e.schema.layoutOf(x); ok {
		e.w.WriteByte(tagClass)
		e.writeUvarint(uint64(idx))
		for _, f := range cl.fields {
			if err := e.EncodeValue(x.Fields[f]); err != nil {
				return err
			}
		}
		return nil
	}
	e.w.WriteByte(tagObject)
	e.writeVarString(x.Class)
	base := len(e.names)
	defer func() { e.names = e.names[:base] }()
	for n := range x.Fields {
		e.names = append(e.names, n)
	}
	names := e.names[base:]
	slices.Sort(names)
	e.writeUvarint(uint64(len(names)))
	for _, n := range names {
		e.writeVarString(n)
		if err := e.EncodeValue(x.Fields[n]); err != nil {
			return err
		}
	}
	return nil
}

// slicePtr identifies a slice's backing array for reference deduplication.
// It avoids reflect.ValueOf, whose interface boxing would allocate on every
// encoded slice; the resulting uintptr is only ever compared as a map key,
// never converted back to a pointer.
func slicePtr[T any](x []T) uintptr {
	if len(x) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&x[0]))
}

// writeSliceRef emits a back-reference if the slice was already encoded.
func (e *Encoder) writeSliceRef(tag byte, ptr uintptr, n int) bool {
	if ptr == 0 {
		return false
	}
	if ref, ok := e.memSeen[memKey{ptr: ptr, len: n, tag: tag}]; ok {
		e.w.WriteByte(tagRef)
		e.writeU32(ref)
		return true
	}
	return false
}

func (e *Encoder) claimRef(tag byte, ptr uintptr, n int) {
	if ptr != 0 {
		e.memSeen[memKey{ptr: ptr, len: n, tag: tag}] = e.nextRef
	}
	e.nextRef++
}

// Decoder deserialises values produced by an Encoder. It reads the input
// slice through an offset: integer and length fields are decoded in place,
// so only the values handed to the caller allocate. Decoded Bytes,
// IntArray and FloatArray values are copies, never views of the input —
// handlers may mutate them while the input frame is retained elsewhere
// (the subscriber's dead-letter quarantine).
type Decoder struct {
	data   []byte
	off    int
	schema *Schema
	// The decoded objects and arrays, in encoder order, are the
	// back-reference targets: the first len(refBuf) inline, which covers
	// the common message (an event object and its payload array) without
	// an allocation, the rest in moreRefs. An inline array rather than a
	// slice over it keeps a stack Decoder on the stack.
	refBuf   [4]mir.Value
	moreRefs []mir.Value
	nrefs    int
	// depth is how many objects enclose the value being read.
	depth int
}

// NewDecoder creates a decoder over the given bytes, resolving
// declared-class objects against s (nil: only the tagged form decodes).
func NewDecoder(data []byte, s *Schema) *Decoder {
	return &Decoder{data: data, schema: s}
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// take consumes the next n bytes. Short input fails like io.ReadFull:
// io.EOF when nothing is left, io.ErrUnexpectedEOF when some is.
func (d *Decoder) take(n int) ([]byte, error) {
	rem := len(d.data) - d.off
	if n > rem {
		d.off = len(d.data)
		if rem == 0 {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	b := d.data[d.off : d.off+n : d.off+n]
	d.off += n
	return b, nil
}

func (d *Decoder) readByte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

func (d *Decoder) readU32() (uint32, error) {
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (d *Decoder) readU64() (uint64, error) {
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

var errVarint = errors.New("wire: malformed varint")

func (d *Decoder) readUvarint() (uint64, error) {
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		if n == 0 {
			d.off = len(d.data)
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errVarint
	}
	d.off += n
	return v, nil
}

func (d *Decoder) readVarint() (int64, error) {
	if d.off >= len(d.data) {
		return 0, io.EOF
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		if n == 0 {
			d.off = len(d.data)
			return 0, io.ErrUnexpectedEOF
		}
		return 0, errVarint
	}
	d.off += n
	return v, nil
}

// rest consumes the remaining input as a view, refusing an empty one.
func (d *Decoder) rest(what string) ([]byte, error) {
	if d.off >= len(d.data) {
		return nil, fmt.Errorf("wire: %s missing: %w", what, io.EOF)
	}
	b := d.data[d.off:len(d.data):len(d.data)]
	d.off = len(d.data)
	return b, nil
}

// readLen reads a varint length or count of items costing at least unit
// bytes each, refusing one the remaining input cannot back — so a corrupt
// prefix fails before anything is sized toward it.
func (d *Decoder) readLen(what string, unit int) (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(d.Remaining()/unit) {
		return 0, fmt.Errorf("wire: %s %d exceeds remaining %d", what, n, d.Remaining())
	}
	return int(n), nil
}

// readStringBytes reads a u32-length-prefixed string as a view of the
// input.
func (d *Decoder) readStringBytes() ([]byte, error) {
	n, err := d.readU32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(d.Remaining()) {
		return nil, fmt.Errorf("wire: string length %d exceeds remaining %d", n, d.Remaining())
	}
	return d.take(int(n))
}

// readString reads a u32-length-prefixed string into one fresh allocation.
func (d *Decoder) readString() (string, error) {
	b, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// intern returns the registered copy of a name (see InternNames) without
// allocating, or a fresh copy of any other name.
func intern(b []byte) string {
	if s, ok := lookupName(b); ok {
		return s
	}
	return string(b)
}

// readName reads a u32-length-prefixed handler name, interned.
func (d *Decoder) readName() (string, error) {
	b, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return intern(b), nil
}

// readVarName reads a varint-length-prefixed class or field name,
// interned.
func (d *Decoder) readVarName() (string, error) {
	n, err := d.readLen("name length", 1)
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return intern(b), nil
}

// addRef records a decoded object or array as the next back-reference
// target and returns it. Callers return the result rather than the typed
// value, so a slice is boxed into an interface once, not twice.
func (d *Decoder) addRef(v mir.Value) mir.Value {
	if d.nrefs < len(d.refBuf) {
		d.refBuf[d.nrefs] = v
	} else {
		d.moreRefs = append(d.moreRefs, v)
	}
	d.nrefs++
	return v
}

// DecodeSlot reads one continuation slot: scalars come back unboxed, an
// absent marker as SlotAbsent.
func (d *Decoder) DecodeSlot() (Slot, error) {
	if d.off >= len(d.data) {
		return Slot{}, io.EOF
	}
	switch d.data[d.off] {
	case tagAbsent:
		d.off++
		return Slot{}, nil
	case tagInt:
		d.off++
		i, err := d.readVarint()
		return Slot{Kind: SlotInt, I: i}, err
	case tagFloat:
		d.off++
		u, err := d.readU64()
		return Slot{Kind: SlotFloat, F: math.Float64frombits(u)}, err
	case tagBool:
		d.off++
		b, err := d.readByte()
		if b != 0 {
			return Slot{Kind: SlotBool, I: 1}, err
		}
		return Slot{Kind: SlotBool}, err
	}
	v, err := d.DecodeValue()
	return Slot{Kind: SlotValue, V: v}, err
}

// DecodeValue reads one value.
func (d *Decoder) DecodeValue() (mir.Value, error) {
	tag, err := d.readByte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return mir.Null{}, nil
	case tagBool:
		b, err := d.readByte()
		if err != nil {
			return nil, err
		}
		return mir.Bool(b != 0), nil
	case tagInt:
		i, err := d.readVarint()
		if err != nil {
			return nil, err
		}
		return mir.Int(i), nil
	case tagFloat:
		u, err := d.readU64()
		if err != nil {
			return nil, err
		}
		return mir.Float(math.Float64frombits(u)), nil
	case tagStr:
		n, err := d.readLen("string length", 1)
		if err != nil {
			return nil, err
		}
		b, err := d.take(n)
		if err != nil {
			return nil, err
		}
		return mir.Str(b), nil
	case tagBytes:
		n, err := d.readLen("bytes length", 1)
		if err != nil {
			return nil, err
		}
		src, err := d.take(n)
		if err != nil {
			return nil, err
		}
		buf := make(mir.Bytes, n)
		copy(buf, src)
		return d.addRef(buf), nil
	case tagIntArray:
		src, err := d.readWords("intarray")
		if err != nil {
			return nil, err
		}
		arr := make(mir.IntArray, len(src)/8)
		for i := range arr {
			arr[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
		}
		return d.addRef(arr), nil
	case tagFloatArray:
		src, err := d.readWords("floatarray")
		if err != nil {
			return nil, err
		}
		arr := make(mir.FloatArray, len(src)/8)
		for i := range arr {
			arr[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
		return d.addRef(arr), nil
	case tagClass:
		return d.decodeClass()
	case tagObject:
		return d.decodeObject()
	case tagRef:
		ref, err := d.readU32()
		if err != nil {
			return nil, err
		}
		if int64(ref) >= int64(d.nrefs) {
			return nil, fmt.Errorf("wire: dangling reference %d (have %d)", ref, d.nrefs)
		}
		if int(ref) < len(d.refBuf) {
			return d.refBuf[ref], nil
		}
		return d.moreRefs[int(ref)-len(d.refBuf)], nil
	default:
		return nil, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// decodeClass reads a declared-class object: its class index, then one
// value per declared field.
func (d *Decoder) decodeClass() (mir.Value, error) {
	if d.depth == maxValueDepth {
		return nil, errValueTooDeep
	}
	if d.schema == nil {
		return nil, errNoSchema
	}
	idx, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if idx >= uint64(len(d.schema.classes)) {
		return nil, fmt.Errorf("wire: class index %d out of range (schema has %d)", idx, len(d.schema.classes))
	}
	cl := &d.schema.classes[idx]
	// Take the ref slot before decoding fields so nested back-references
	// resolve in encoder order.
	obj := &mir.Object{Class: cl.name, Fields: make(map[string]mir.Value, len(cl.fields))}
	d.addRef(obj)
	d.depth++
	for _, f := range cl.fields {
		fv, err := d.DecodeValue()
		if err != nil {
			return nil, err
		}
		obj.Fields[f] = fv
	}
	d.depth--
	return obj, nil
}

// decodeObject reads a tagged object: class name, field count, then
// (name, value) pairs.
func (d *Decoder) decodeObject() (mir.Value, error) {
	if d.depth == maxValueDepth {
		return nil, errValueTooDeep
	}
	class, err := d.readVarName()
	if err != nil {
		return nil, err
	}
	// Each field costs at least a 1-byte name length plus a 1-byte value
	// tag; a count the remaining input cannot possibly satisfy is corrupt,
	// so fail before sizing the field map toward it.
	nf, err := d.readLen("field count", 2)
	if err != nil {
		return nil, err
	}
	// The hint is capped: the clamp above holds per nesting level, so an
	// uncapped hint lets nested objects each claim most of the frame and
	// commit memory quadratic in its length before the decode fails.
	// Larger maps grow as real fields arrive.
	obj := &mir.Object{Class: class, Fields: make(map[string]mir.Value, min(nf, maxFieldHint))}
	d.addRef(obj)
	d.depth++
	for i := 0; i < nf; i++ {
		name, err := d.readVarName()
		if err != nil {
			return nil, err
		}
		fv, err := d.DecodeValue()
		if err != nil {
			return nil, err
		}
		obj.Fields[name] = fv
	}
	d.depth--
	return obj, nil
}

// readWords reads the length-prefixed body of an 8-byte-element array as
// a view of the input.
func (d *Decoder) readWords(what string) ([]byte, error) {
	n, err := d.readLen(what+" length", 8)
	if err != nil {
		return nil, err
	}
	return d.take(n * 8)
}
