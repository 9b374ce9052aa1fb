package partition

import (
	"encoding/binary"
	"sync/atomic"

	"methodpart/internal/analysis"
)

// nodeSet is a bitset over Unit Graph nodes.
type nodeSet []uint64

func newNodeSet(n int) nodeSet   { return make(nodeSet, (n+63)/64) }
func (s nodeSet) has(i int) bool { return s[i/64]&(1<<uint(i%64)) != 0 }
func (s nodeSet) add(i int)      { s[i/64] |= 1 << uint(i%64) }
func (s nodeSet) clone() nodeSet { return append(nodeSet(nil), s...) }

// key encodes the set as a map key.
func (s nodeSet) key() string {
	b := make([]byte, 8*len(s))
	for i, w := range s {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return string(b)
}

// ConvexCuts lists up to max candidate convex cuts of the handler's Unit
// Graph, each as a sorted PSE id set; the raw cut {RawPSEID} is always the
// first. It is CutTable(max).Cuts: enumerated once per (Compiled, max) and
// shared by every caller. Safe for concurrent use; the returned slices must
// not be modified.
func (c *Compiled) ConvexCuts(max int) [][]int32 { return c.CutTable(max).Cuts }

// CutTable returns the handler's cut table under the candidate cap max.
// The table depends only on the handler and max, so it is enumerated once,
// on first use, and shared by every caller — every reconfiguration unit
// built on this handler prices the same candidates. Safe for concurrent
// use.
func (c *Compiled) CutTable(max int) *CutTable {
	c.cutsMu.Lock()
	defer c.cutsMu.Unlock()
	if t, ok := c.cuts[max]; ok {
		return t
	}
	if c.cuts == nil {
		c.cuts = make(map[int]*CutTable, 1)
	}
	c.cutEnumerations++
	cuts, complete := c.enumerateCuts(max)
	t := &CutTable{
		Cuts:     cuts,
		Complete: complete,
		c:        c,
		valid:    make([]atomic.Uint32, len(cuts)),
	}
	for i := range t.plans {
		t.plans[i] = make([]atomic.Pointer[Plan], len(cuts))
	}
	c.cuts[max] = t
	return t
}

// CutTable is a handler's convex-cut enumeration under one candidate cap,
// plus what plan selection would otherwise recompute per call: each cut's
// validity and its plan template. Selection prices a cut as the sum of its
// PSEs' prices, so the table holds no prices itself. Immutable apart from
// those lazily filled, concurrency-safe per-cut caches.
type CutTable struct {
	// Cuts are the candidate cuts in the enumeration's BFS order, each a
	// sorted PSE id set; Cuts[0] is the raw cut. Shared: must not be
	// modified.
	Cuts [][]int32
	// Complete reports that the enumeration visited every closed source
	// set before reaching the cap, so Cuts holds every convex cut of the
	// handler and the scalar min-cut is among them. A truncated table
	// (false) may miss it.
	Complete bool

	c *Compiled
	// valid caches ValidateSplitSet per cut: cutUnchecked, cutValid or
	// cutInvalid.
	valid []atomic.Uint32
	// plans caches each cut's version-0 plan template, indexed
	// [profileAll][cut]; see Plan.
	plans [2][]atomic.Pointer[Plan]
}

// Per-cut validity states of CutTable.valid.
const (
	cutUnchecked uint32 = iota
	cutValid
	cutInvalid
)

// Valid reports whether Cuts[i] passes ValidateSplitSet. The enumeration
// guarantees validity by construction; the check runs at most once per cut
// so callers can afford to verify before shipping a plan.
func (t *CutTable) Valid(i int) bool {
	switch t.valid[i].Load() {
	case cutValid:
		return true
	case cutInvalid:
		return false
	}
	ok := t.c.ValidateSplitSet(t.Cuts[i]) == nil
	state := cutInvalid
	if ok {
		state = cutValid
	}
	t.valid[i].Store(state)
	return ok
}

// Plan returns the version-0 plan splitting at Cuts[i], profiling every
// PSE when profileAll is set and only the cut otherwise. It is built on
// first request and shared: stamp a version with Plan.WithVersion, and do
// not modify its id slices.
func (t *CutTable) Plan(i int, profileAll bool) (*Plan, error) {
	slot := &t.plans[0][i]
	if profileAll {
		slot = &t.plans[1][i]
	}
	if p := slot.Load(); p != nil {
		return p, nil
	}
	profile := t.Cuts[i]
	if profileAll {
		profile = AllProfileIDs(t.c)
	}
	p, err := NewPlan(t.c.NumPSEs(), 0, t.Cuts[i], profile)
	if err != nil {
		return nil, err
	}
	// Concurrent first requests may both build; either template serves.
	slot.CompareAndSwap(nil, p)
	return slot.Load(), nil
}

// enumerateCuts is the static ConvexCut enumeration behind ConvexCuts. A
// candidate is the PSE frontier of a "closed" source set S: closed under
// non-PSE edges (so the cut never crosses an uncuttable edge) and containing
// no StopNode (so no modulator-side path leaks past the cut — the same
// invariant ValidateSplitSet checks). The enumeration BFSes from the minimal
// closed set, advancing one frontier PSE at a time, and stops after max
// candidates. complete reports that it stopped because no closed set was
// left to visit rather than at the cap.
func (c *Compiled) enumerateCuts(max int) (cuts [][]int32, complete bool) {
	ug := c.Analysis.UG
	n := ug.Exit + 1
	stops := c.Analysis.Stops
	pseAt := func(a, b int) (int32, bool) {
		return c.PSEByEdge(analysis.Edge{From: a, To: b})
	}

	// closure grows S along non-PSE edges; returns false if a StopNode
	// joins S (no valid cut separates this source set from the stops).
	closure := func(s nodeSet) bool {
		work := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if s.has(i) {
				work = append(work, i)
			}
		}
		for len(work) > 0 {
			a := work[len(work)-1]
			work = work[:len(work)-1]
			if stops[a] {
				return false
			}
			for _, b := range ug.G.Succ(a) {
				if s.has(b) {
					continue
				}
				if _, isPSE := pseAt(a, b); isPSE {
					continue
				}
				s.add(b)
				work = append(work, b)
			}
		}
		return true
	}

	// frontier returns the PSE ids crossing out of S, sorted.
	frontier := func(s nodeSet) []int32 {
		seen := map[int32]bool{}
		var ids []int32
		for a := 0; a < n; a++ {
			if !s.has(a) {
				continue
			}
			for _, b := range ug.G.Succ(a) {
				if s.has(b) {
					continue
				}
				if id, ok := pseAt(a, b); ok && !seen[id] {
					seen[id] = true
					ids = append(ids, id)
				}
			}
		}
		return SortedIDs(ids)
	}

	cuts = [][]int32{{RawPSEID}}
	s0 := newNodeSet(n)
	s0.add(ug.Start)
	if !closure(s0) {
		return cuts, true
	}
	queue := []nodeSet{s0}
	setSeen := map[string]bool{s0.key(): true}

	for len(queue) > 0 && len(cuts) < max {
		s := queue[0]
		queue = queue[1:]
		if cut := frontier(s); len(cut) > 0 && !ContainsCut(cuts, cut) {
			cuts = append(cuts, cut)
		}
		// Advance across each frontier PSE edge in turn.
		for a := 0; a < n; a++ {
			if !s.has(a) {
				continue
			}
			for _, b := range ug.G.Succ(a) {
				if s.has(b) {
					continue
				}
				if _, ok := pseAt(a, b); !ok {
					continue
				}
				next := s.clone()
				next.add(b)
				if !closure(next) {
					continue
				}
				if k := next.key(); !setSeen[k] {
					setSeen[k] = true
					queue = append(queue, next)
				}
			}
		}
	}
	return cuts, len(queue) == 0
}

// EqualCut reports whether two sorted split-id sets are equal.
func EqualCut(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ContainsCut reports whether cuts holds a set equal to cut.
func ContainsCut(cuts [][]int32, cut []int32) bool {
	for _, c := range cuts {
		if EqualCut(c, cut) {
			return true
		}
	}
	return false
}
