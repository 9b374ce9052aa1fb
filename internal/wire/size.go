package wire

import (
	"sync"

	"methodpart/internal/mir"
)

// Sizer computes the encoded size of values without serialising them — the
// paper's "customized object serialization algorithm [that] only performs
// size calculation" (§4.1). It is O(1) for primitive arrays, prices
// declared-class objects under the same Schema the Encoder uses, and shares
// the Encoder's reference-deduplication semantics, so Size(vs...) equals
// the byte length an Encoder would produce for the same values.
//
// The total does not depend on the order fields are visited in: every
// shared object or array costs its payload once and a fixed-width
// back-reference at each other occurrence, whichever occurrence the
// encoder happens to reach first. So the Sizer walks tagged objects'
// fields in map order, where the Encoder sorts.
type Sizer struct {
	schema  *Schema
	objSeen map[*mir.Object]struct{}
	memSeen map[memKey]struct{}
}

// NewSizer creates a sizer pricing objects under s (nil: the tagged form
// throughout). Like an Encoder, one Sizer spans one message; Reset starts
// the next one. Hot paths draw from GetSizer instead.
func NewSizer(s *Schema) *Sizer {
	return &Sizer{
		schema:  s,
		objSeen: make(map[*mir.Object]struct{}),
		memSeen: make(map[memKey]struct{}),
	}
}

// Reset forgets every value seen so far, keeping the tables' capacity, so
// the sizer can price another message without allocating.
func (s *Sizer) Reset() {
	clear(s.objSeen)
	clear(s.memSeen)
}

// Encoded sizes of the fixed-size encodings.
const (
	// boolSize is the encoded size of a Bool (tag + 1 byte).
	boolSize = 2
	// floatSize is the encoded size of a Float (tag + 8 bytes).
	floatSize = 9
	// absentSize is the encoded size of an unset continuation slot.
	absentSize = 1
	// refSize is the encoded size of a back-reference (tag + u32).
	refSize = 5
)

// uvarintLen is the encoded length of v as an unsigned varint.
func uvarintLen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// varintLen is the encoded length of v as a zigzag varint.
func varintLen(v int64) int64 {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// intSize is the encoded size of an Int holding v (tag + zigzag varint).
func intSize(v int64) int64 { return 1 + varintLen(v) }

// Slot accumulates the encoded size of one continuation slot.
func (s *Sizer) Slot(sl Slot) int64 {
	switch sl.Kind {
	case SlotInt:
		return intSize(sl.I)
	case SlotFloat:
		return floatSize
	case SlotBool:
		return boolSize
	case SlotValue:
		return s.Size(sl.V)
	default:
		return absentSize
	}
}

// Size accumulates the encoded size of one value.
func (s *Sizer) Size(v mir.Value) int64 {
	if v == nil {
		return 1
	}
	switch x := v.(type) {
	case mir.Null:
		return 1
	case mir.Bool:
		return boolSize
	case mir.Int:
		return intSize(int64(x))
	case mir.Float:
		return floatSize
	case mir.Str:
		return 1 + uvarintLen(uint64(len(x))) + int64(len(x))
	case mir.Bytes:
		return s.sliceSize(tagBytes, slicePtr(x), len(x), 1)
	case mir.IntArray:
		return s.sliceSize(tagIntArray, slicePtr(x), len(x), 8)
	case mir.FloatArray:
		return s.sliceSize(tagFloatArray, slicePtr(x), len(x), 8)
	case *mir.Object:
		if x == nil {
			return 1
		}
		if _, seen := s.objSeen[x]; seen {
			return refSize
		}
		s.objSeen[x] = struct{}{}
		if idx, cl, ok := s.schema.layoutOf(x); ok {
			total := 1 + uvarintLen(uint64(idx))
			for _, f := range cl.fields {
				total += s.Size(x.Fields[f])
			}
			return total
		}
		total := 1 + nameSize(x.Class) + uvarintLen(uint64(len(x.Fields)))
		for n, fv := range x.Fields {
			total += nameSize(n) + s.Size(fv)
		}
		return total
	default:
		return 0
	}
}

// nameSize is the encoded size of a varint-length-prefixed name.
func nameSize(name string) int64 { return uvarintLen(uint64(len(name))) + int64(len(name)) }

func (s *Sizer) sliceSize(tag byte, ptr uintptr, n int, elem int64) int64 {
	if ptr != 0 {
		k := memKey{ptr: ptr, len: n, tag: tag}
		if _, seen := s.memSeen[k]; seen {
			return refSize
		}
		s.memSeen[k] = struct{}{}
	}
	return 1 + uvarintLen(uint64(n)) + int64(n)*elem
}

// sizerPool recycles Sizers across messages. A sizer whose tables grew
// past maxPooledSeen is dropped instead: clearing a map costs its
// capacity, and one huge graph should not tax every later message.
var sizerPool = sync.Pool{New: func() any { return NewSizer(nil) }}

const maxPooledSeen = 1024

// GetSizer returns an empty pooled sizer pricing objects under schema;
// hand it back with PutSizer.
func GetSizer(schema *Schema) *Sizer {
	s := sizerPool.Get().(*Sizer)
	s.schema = schema
	return s
}

// PutSizer resets s and returns it to the pool. s must not be used
// afterwards.
func PutSizer(s *Sizer) {
	if len(s.objSeen) > maxPooledSeen || len(s.memSeen) > maxPooledSeen {
		return
	}
	s.Reset()
	s.schema = nil
	sizerPool.Put(s)
}

// SizeOf computes the encoded size of a single value under schema (nil:
// the tagged form throughout).
func SizeOf(schema *Schema, v mir.Value) int64 {
	s := GetSizer(schema)
	n := s.Size(v)
	PutSizer(s)
	return n
}

// SizeOfSlots computes the encoded size of a continuation's slots under
// schema, sharing references across them as the encoder does.
func SizeOfSlots(schema *Schema, slots []Slot) int64 {
	s := GetSizer(schema)
	var total int64
	for _, sl := range slots {
		total += s.Slot(sl)
	}
	PutSizer(s)
	return total
}

// RawFrameSize is the encoded length of a Raw frame with sequence number
// seq around an event whose value encodes to eventBytes.
func RawFrameSize(seq uint64, eventBytes int64) int64 {
	return 1 + uvarintLen(seq) + eventBytes
}

// ContinuationFrameSize is the encoded length of a Continuation frame
// whose slots encode to slotBytes: the tag byte, the varint header fields
// and the slot count, then the slots.
func ContinuationFrameSize(pseID int32, forced uint32, seq uint64, modWork int64, slots int, slotBytes int64) int64 {
	return continuationHeaderSize(pseID, forced, seq, modWork) + uvarintLen(uint64(slots)) + slotBytes
}

// continuationHeaderSize is the encoded length of a Continuation frame's
// tag and header fields, up to the slot count.
func continuationHeaderSize(pseID int32, forced uint32, seq uint64, modWork int64) int64 {
	n := 1 + varintLen(int64(pseID)) + uvarintLen(seq) + varintLen(modWork)
	if pseID < 0 {
		n += uvarintLen(uint64(forced))
	}
	return n
}
