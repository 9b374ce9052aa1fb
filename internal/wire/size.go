package wire

import (
	"sync"

	"methodpart/internal/mir"
)

// Sizer computes the encoded size of values without serialising them — the
// paper's "customized object serialization algorithm [that] only performs
// size calculation" (§4.1). It is O(1) for primitive arrays and shares the
// Encoder's reference-deduplication semantics, so Size(vs...) equals the
// byte length an Encoder would produce for the same values.
//
// The total does not depend on the order fields are visited in: every
// shared object or array costs its payload once and a back-reference at
// each other occurrence, whichever occurrence the encoder happens to reach
// first. So the Sizer walks fields in map order, where the Encoder sorts.
type Sizer struct {
	objSeen map[*mir.Object]struct{}
	memSeen map[memKey]struct{}
}

// NewSizer creates a sizer. Like an Encoder, one Sizer spans one message;
// Reset starts the next one. Hot paths draw from GetSizer instead.
func NewSizer() *Sizer {
	return &Sizer{
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

// Encoded sizes of the fixed-size encodings, for callers that hold scalars
// unboxed (see NameSize).
const (
	// BoolSize is the encoded size of a Bool (tag + 1 byte).
	BoolSize = 2
	// NumSize is the encoded size of an Int or Float (tag + 8 bytes).
	NumSize = 9
	// refSize is the encoded size of a back-reference (tag + u32).
	refSize = 5
)

// NameSize is the encoded size of a length-prefixed name — a continuation
// variable's name in front of its value.
func NameSize(name string) int64 { return 4 + int64(len(name)) }

// Size accumulates the encoded size of one value.
func (s *Sizer) Size(v mir.Value) int64 {
	if v == nil {
		return 1
	}
	switch x := v.(type) {
	case mir.Null:
		return 1
	case mir.Bool:
		return BoolSize
	case mir.Int, mir.Float:
		return NumSize
	case mir.Str:
		return 1 + 4 + int64(len(x))
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
		total := int64(1 + 4 + len(x.Class) + 4)
		for n, fv := range x.Fields {
			total += NameSize(n) + s.Size(fv)
		}
		return total
	default:
		return 0
	}
}

func (s *Sizer) sliceSize(tag byte, ptr uintptr, n int, elem int64) int64 {
	if ptr != 0 {
		k := memKey{ptr: ptr, len: n, tag: tag}
		if _, seen := s.memSeen[k]; seen {
			return refSize
		}
		s.memSeen[k] = struct{}{}
	}
	return 1 + 4 + int64(n)*elem
}

// sizerPool recycles Sizers across messages. A sizer whose tables grew
// past maxPooledSeen is dropped instead: clearing a map costs its
// capacity, and one huge graph should not tax every later message.
var sizerPool = sync.Pool{New: func() any { return NewSizer() }}

const maxPooledSeen = 1024

// GetSizer returns an empty pooled sizer; hand it back with PutSizer.
func GetSizer() *Sizer { return sizerPool.Get().(*Sizer) }

// PutSizer resets s and returns it to the pool. s must not be used
// afterwards.
func PutSizer(s *Sizer) {
	if len(s.objSeen) > maxPooledSeen || len(s.memSeen) > maxPooledSeen {
		return
	}
	s.Reset()
	sizerPool.Put(s)
}

// SizeOf computes the encoded size of a single value.
func SizeOf(v mir.Value) int64 {
	s := GetSizer()
	n := s.Size(v)
	PutSizer(s)
	return n
}

// SizeOfAll computes the encoded size of a value group sharing references
// (e.g. the live-variable snapshot of a continuation).
func SizeOfAll(vs []mir.Value) int64 {
	s := GetSizer()
	var total int64
	for _, v := range vs {
		total += s.Size(v)
	}
	PutSizer(s)
	return total
}
