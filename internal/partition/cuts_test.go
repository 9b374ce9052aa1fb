package partition

import (
	"sync"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/testprog"
)

func compilePush(t *testing.T) *Compiled {
	t.Helper()
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, err := u.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := testprog.PushBuiltins()
	c, err := Compile(prog, classes, reg, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConvexCutsEnumeratedOncePerCap pins the memoization: however many
// callers (concurrently) ask for the cuts under one cap, the enumeration
// runs once and every caller gets the same slice; a different cap is its
// own entry.
func TestConvexCutsEnumeratedOncePerCap(t *testing.T) {
	c := compilePush(t)
	var wg sync.WaitGroup
	got := make([][][]int32, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.ConvexCuts(64)
		}(i)
	}
	wg.Wait()
	if c.cutEnumerations != 1 {
		t.Fatalf("enumerations = %d after %d calls, want 1", c.cutEnumerations, len(got))
	}
	for i, cuts := range got {
		if len(cuts) == 0 || &cuts[0] != &got[0][0] {
			t.Fatalf("call %d got a different cut list", i)
		}
	}
	if !EqualCut(got[0][0], []int32{RawPSEID}) {
		t.Errorf("first cut = %v, want the raw cut", got[0][0])
	}
	for _, cut := range got[0] {
		if err := c.ValidateSplitSet(cut); err != nil {
			t.Errorf("enumerated cut %v is invalid: %v", cut, err)
		}
	}
	if small := c.ConvexCuts(1); len(small) != 1 || c.cutEnumerations != 2 {
		t.Errorf("cap 1: %d cuts after %d enumerations, want 1 cut, 2 enumerations", len(small), c.cutEnumerations)
	}
	c.ConvexCuts(64)
	if c.cutEnumerations != 2 {
		t.Errorf("enumerations = %d, want the cap-64 list still cached", c.cutEnumerations)
	}
}
