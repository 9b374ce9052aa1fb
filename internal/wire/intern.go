package wire

import (
	"strings"
	"sync"
	"sync/atomic"
)

// InternCap bounds the interned-name table. Publishers compile
// subscriber-supplied handlers, so the names registered over a process's
// life are not under its control; the cap keeps a stream of distinct
// programs from growing the table without limit.
const InternCap = 4096

// interned maps each registered name to its shared copy. The map is
// immutable once published: InternNames builds a new one and swaps the
// pointer, so decoders look names up without a lock.
var (
	interned atomic.Pointer[map[string]string]
	internMu sync.Mutex
)

// InternNames registers handler, class, field and variable names that
// decoded messages will carry, so the decoder returns the shared string
// instead of allocating one per message. Compiling a handler registers its
// names; decoded input never does.
//
// When the new names would push the table past InternCap, the table
// restarts from them: the most recently compiled programs stay interned,
// and a name that dropped out merely decodes into a fresh string again.
func InternNames(names ...string) {
	internMu.Lock()
	defer internMu.Unlock()
	var cur map[string]string
	if p := interned.Load(); p != nil {
		cur = *p
	}
	fresh := 0
	for _, n := range names {
		if _, ok := cur[n]; !ok {
			fresh++
		}
	}
	if fresh == 0 {
		return
	}
	if len(cur)+fresh > InternCap {
		cur = nil
	}
	next := make(map[string]string, len(cur)+fresh)
	for k, v := range cur {
		next[k] = v
	}
	for _, n := range names {
		if len(next) >= InternCap {
			break
		}
		if _, ok := next[n]; !ok {
			// Clone so the table never pins the handler source a name
			// was sliced from.
			next[n] = strings.Clone(n)
		}
	}
	interned.Store(&next)
}

// InternedNames returns the number of names in the intern table.
func InternedNames() int {
	if p := interned.Load(); p != nil {
		return len(*p)
	}
	return 0
}

// lookupName returns the interned copy of b, if registered. The
// string(b) conversion in a map index does not allocate.
func lookupName(b []byte) (string, bool) {
	p := interned.Load()
	if p == nil {
		return "", false
	}
	s, ok := (*p)[string(b)]
	return s, ok
}
