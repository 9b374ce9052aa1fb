// Package wire implements the binary on-the-wire representation of MIR
// values, continuation messages and the control messages (profiling feedback
// and partitioning plans) exchanged between modulator and demodulator sides.
//
// Object and array values are encoded with reference sharing: the first
// occurrence carries the payload, later occurrences a 5-byte back-reference.
// This matches the paper's data-size cost definition (§4.1): "the total
// runtime size of the unique objects reachable ... plus the total number of
// duplicated references to those unique objects".
package wire

import (
	"bytes"
	"encoding/binary"
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
)

// maxFieldHint caps the size hint a decoded object's field count gives its
// field map: the count is peer-supplied, and a map made for at most one
// group of slots costs no more than an unhinted one until fields arrive.
const maxFieldHint = 8

// Encoder serialises MIR values with reference deduplication. One Encoder
// encodes one message; references are shared across all values written
// through it. Reset makes an Encoder reusable across messages (the pooled
// Marshal/AppendMarshal path relies on this), retaining the buffer and map
// capacity so steady-state encoding allocates nothing.
type Encoder struct {
	w       *bytes.Buffer
	objSeen map[*mir.Object]uint32
	memSeen map[memKey]uint32
	nextRef uint32
	// names is a scratch slice for sorting field/var names with stack
	// discipline: each (possibly nested) use appends its names after the
	// ones already in flight and truncates back when done, so recursion
	// reuses one allocation.
	names    []string
	scratch8 [8]byte
}

type memKey struct {
	ptr uintptr
	len int
	tag byte
}

// NewEncoder creates an encoder writing to an internal buffer.
func NewEncoder() *Encoder {
	return &Encoder{
		w:       &bytes.Buffer{},
		objSeen: make(map[*mir.Object]uint32),
		memSeen: make(map[memKey]uint32),
	}
}

// Reset clears the encoded output and the reference tables while keeping
// their capacity, so the encoder can serialise another message without
// reallocating.
func (e *Encoder) Reset() {
	e.w.Reset()
	clear(e.objSeen)
	clear(e.memSeen)
	e.nextRef = 0
	e.names = e.names[:0]
}

// Bytes returns the encoded output.
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return e.w.Len() }

func (e *Encoder) writeU32(v uint32) {
	binary.LittleEndian.PutUint32(e.scratch8[:4], v)
	e.w.Write(e.scratch8[:4])
}

func (e *Encoder) writeU64(v uint64) {
	binary.LittleEndian.PutUint64(e.scratch8[:8], v)
	e.w.Write(e.scratch8[:8])
}

func (e *Encoder) writeString(s string) {
	e.writeU32(uint32(len(s)))
	e.w.WriteString(s)
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
		e.writeU64(uint64(x))
	case mir.Float:
		e.w.WriteByte(tagFloat)
		e.writeU64(math.Float64bits(float64(x)))
	case mir.Str:
		e.w.WriteByte(tagStr)
		e.writeString(string(x))
	case mir.Bytes:
		if e.writeSliceRef(tagBytes, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagBytes)
		e.writeU32(uint32(len(x)))
		e.w.Write(x)
		e.claimRef(tagBytes, slicePtr(x), len(x))
	case mir.IntArray:
		if e.writeSliceRef(tagIntArray, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagIntArray)
		e.writeU32(uint32(len(x)))
		for _, n := range x {
			e.writeU64(uint64(n))
		}
		e.claimRef(tagIntArray, slicePtr(x), len(x))
	case mir.FloatArray:
		if e.writeSliceRef(tagFloatArray, slicePtr(x), len(x)) {
			return nil
		}
		e.w.WriteByte(tagFloatArray)
		e.writeU32(uint32(len(x)))
		for _, f := range x {
			e.writeU64(math.Float64bits(f))
		}
		e.claimRef(tagFloatArray, slicePtr(x), len(x))
	case *mir.Object:
		if x == nil {
			e.w.WriteByte(tagNull)
			return nil
		}
		if ref, ok := e.objSeen[x]; ok {
			e.w.WriteByte(tagRef)
			e.writeU32(ref)
			return nil
		}
		e.w.WriteByte(tagObject)
		e.objSeen[x] = e.nextRef
		e.nextRef++
		e.writeString(x.Class)
		base := len(e.names)
		for n := range x.Fields {
			e.names = append(e.names, n)
		}
		names := e.names[base:]
		slices.Sort(names)
		e.writeU32(uint32(len(names)))
		for _, n := range names {
			e.writeString(n)
			if err := e.EncodeValue(x.Fields[n]); err != nil {
				e.names = e.names[:base]
				return err
			}
		}
		e.names = e.names[:base]
	default:
		return fmt.Errorf("wire: cannot encode %T", v)
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
	data []byte
	off  int
	// The decoded objects and arrays, in encoder order, are the
	// back-reference targets: the first len(refBuf) inline, which covers
	// the common message (an event object and its payload array) without
	// an allocation, the rest in moreRefs. An inline array rather than a
	// slice over it keeps a stack Decoder on the stack.
	refBuf   [4]mir.Value
	moreRefs []mir.Value
	nrefs    int
}

// NewDecoder creates a decoder over the given bytes.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
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

// readStringBytes reads a length-prefixed string as a view of the input.
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

// readString reads a length-prefixed string into one fresh allocation.
func (d *Decoder) readString() (string, error) {
	b, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// readName reads a handler, class, field or variable name. Names a
// compiled program registered (see InternNames) come back as the shared
// interned string without allocating; any other name is copied.
func (d *Decoder) readName() (string, error) {
	b, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	if s, ok := lookupName(b); ok {
		return s, nil
	}
	return string(b), nil
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
		u, err := d.readU64()
		if err != nil {
			return nil, err
		}
		return mir.Int(int64(u)), nil
	case tagFloat:
		u, err := d.readU64()
		if err != nil {
			return nil, err
		}
		return mir.Float(math.Float64frombits(u)), nil
	case tagStr:
		s, err := d.readString()
		if err != nil {
			return nil, err
		}
		return mir.Str(s), nil
	case tagBytes:
		n, err := d.readU32()
		if err != nil {
			return nil, err
		}
		if int64(n) > int64(d.Remaining()) {
			return nil, fmt.Errorf("wire: bytes length %d exceeds remaining %d", n, d.Remaining())
		}
		src, err := d.take(int(n))
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
	case tagObject:
		class, err := d.readName()
		if err != nil {
			return nil, err
		}
		nf, err := d.readU32()
		if err != nil {
			return nil, err
		}
		// Each field costs at least a 4-byte name length plus a 1-byte
		// value tag; a count the remaining input cannot possibly satisfy is
		// corrupt, so fail before sizing the field map toward it.
		if int64(nf) > int64(d.Remaining())/5 {
			return nil, fmt.Errorf("wire: field count %d exceeds remaining payload", nf)
		}
		// The hint is capped: the clamp above holds per nesting level, so
		// an uncapped hint lets nested objects each claim most of the
		// frame and commit memory quadratic in its length before the
		// decode fails. Larger maps grow as real fields arrive.
		//
		// Take the ref slot before decoding fields so nested
		// back-references resolve in encoder order.
		obj := &mir.Object{Class: class, Fields: make(map[string]mir.Value, min(nf, maxFieldHint))}
		d.addRef(obj)
		for i := uint32(0); i < nf; i++ {
			name, err := d.readName()
			if err != nil {
				return nil, err
			}
			fv, err := d.DecodeValue()
			if err != nil {
				return nil, err
			}
			obj.Fields[name] = fv
		}
		return obj, nil
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

// readWords reads the length-prefixed body of an 8-byte-element array as
// a view of the input.
func (d *Decoder) readWords(what string) ([]byte, error) {
	n, err := d.readU32()
	if err != nil {
		return nil, err
	}
	// int64 arithmetic so a 2^32-scale prefix cannot overflow the
	// comparison on 32-bit platforms and slip past the clamp.
	if int64(n)*8 > int64(d.Remaining()) {
		return nil, fmt.Errorf("wire: %s length %d exceeds remaining %d", what, n, d.Remaining())
	}
	return d.take(int(n) * 8)
}
