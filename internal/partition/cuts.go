package partition

import (
	"encoding/binary"

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
// first. The list depends only on the handler and max, so it is enumerated
// once per (Compiled, max) and shared by every caller — every
// reconfiguration unit built on this handler prices the same candidates.
// Safe for concurrent use; the returned slices must not be modified.
func (c *Compiled) ConvexCuts(max int) [][]int32 {
	c.cutsMu.Lock()
	defer c.cutsMu.Unlock()
	if cuts, ok := c.cuts[max]; ok {
		return cuts
	}
	if c.cuts == nil {
		c.cuts = make(map[int][][]int32, 1)
	}
	c.cutEnumerations++
	cuts := c.enumerateCuts(max)
	c.cuts[max] = cuts
	return cuts
}

// enumerateCuts is the static ConvexCut enumeration behind ConvexCuts. A
// candidate is the PSE frontier of a "closed" source set S: closed under
// non-PSE edges (so the cut never crosses an uncuttable edge) and containing
// no StopNode (so no modulator-side path leaks past the cut — the same
// invariant ValidateSplitSet checks). The enumeration BFSes from the minimal
// closed set, advancing one frontier PSE at a time, and stops after max
// candidates.
func (c *Compiled) enumerateCuts(max int) [][]int32 {
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

	cuts := [][]int32{{RawPSEID}}
	s0 := newNodeSet(n)
	s0.add(ug.Start)
	if !closure(s0) {
		return cuts
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
	return cuts
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
