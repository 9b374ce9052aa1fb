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

// TestCutTableCompleteness pins the Complete bit — set only when the
// enumeration ran out of source sets below the cap — and the per-cut
// caches: one validity answer and one shared plan template per cut and
// profiling mode.
func TestCutTableCompleteness(t *testing.T) {
	c := compilePush(t)
	full := c.CutTable(64)
	if !full.Complete || len(full.Cuts) < 2 {
		t.Fatalf("cap 64: %d cuts, complete=%v; want every cut, complete", len(full.Cuts), full.Complete)
	}
	if capped := c.CutTable(len(full.Cuts) - 1); capped.Complete {
		t.Errorf("cap %d of %d cuts reports a complete enumeration", len(full.Cuts)-1, len(full.Cuts))
	}
	if exact := c.CutTable(len(full.Cuts)); !EqualCut(exact.Cuts[len(exact.Cuts)-1], full.Cuts[len(full.Cuts)-1]) {
		t.Errorf("cap %d: cuts %v, want %v", len(full.Cuts), exact.Cuts, full.Cuts)
	}
	for i, cut := range full.Cuts {
		if !full.Valid(i) || !full.Valid(i) {
			t.Errorf("cut %v reported invalid", cut)
		}
		for _, all := range []bool{false, true} {
			p, err := full.Plan(i, all)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := full.Plan(i, all); again != p {
				t.Errorf("cut %v: plan template rebuilt", cut)
			}
			if !EqualCut(p.SplitIDs(), cut) || p.Version() != 0 || (len(p.ProfileIDs()) == c.NumPSEs()) != all {
				t.Errorf("cut %v profileAll=%v: template %v", cut, all, p)
			}
			if v := p.WithVersion(7); v.Version() != 7 || v.Fingerprint() != p.Fingerprint() || p.Version() != 0 {
				t.Errorf("WithVersion(7) = %v from %v", v, p)
			}
		}
	}
}
