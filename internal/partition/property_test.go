package partition_test

import (
	"fmt"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// completeSplitSet grows {id} into a valid cut by adding further PSEs.
func completeSplitSet(c *partition.Compiled, id int32) []int32 {
	split := []int32{id}
	if c.ValidateSplitSet(split) == nil {
		return split
	}
	for other := int32(1); other < int32(c.NumPSEs()); other++ {
		if other == id {
			continue
		}
		split = append(split, other)
		if c.ValidateSplitSet(split) == nil {
			return split
		}
	}
	return nil
}

// objectEvents are the Box events RandomObjectProgram handlers run on: a
// small n (the optional register set), a large n (it stays unset, so it
// crosses as an absent slot), and a Box with an undeclared extra field,
// which travels in the tagged form instead of the declared layout.
func objectEvents(seed int64) map[string]func() mir.Value {
	return map[string]func() mir.Value{
		"small": func() mir.Value { return testprog.NewBox(seed%200, 8) },
		"large": func() mir.Value { return testprog.NewBox(1000+seed*37, 3) },
		"extra": func() mir.Value {
			b := testprog.NewBox(seed, 2)
			b.Fields["note"] = mir.Str("undeclared")
			return b
		},
	}
}

// checkSplitEquivalence runs prog on event under every individually
// completable PSE plan, each message crossing the wire as a pooled frame,
// and demands the effects and return value of the unsplit run. When the
// unsplit run sinks one object twice (two registers aliasing it), the
// receiver must sink one shared object too.
// slotCoverage counts the continuation shapes checkSplitEquivalence saw.
type slotCoverage struct{ absent, aliased, objects int }

// note records the shapes of one continuation's slots.
func (cov *slotCoverage) note(cont *wire.Continuation) {
	seen := map[mir.Value]bool{}
	for _, sl := range cont.Vars {
		switch {
		case sl.Kind == wire.SlotAbsent:
			cov.absent++
		case sl.Kind == wire.SlotValue:
			if _, ok := sl.V.(*mir.Object); ok {
				if seen[sl.V] {
					cov.aliased++
				}
				seen[sl.V] = true
				cov.objects++
			}
		}
	}
}

func checkSplitEquivalence(t *testing.T, prog *mir.Program, classes *mir.ClassTable, event func() mir.Value, cov *slotCoverage) {
	t.Helper()
	oracleReg, _ := testprog.SinkRegistry()
	c, err := partition.Compile(prog, classes, oracleReg, costmodel.NewDataSize())
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, prog)
	}
	wholeReg, wholeSunk := testprog.SinkRegistry()
	wantRet := wholeOutcome(t, interp.NewEnv(classes, wholeReg), prog, event()).Return
	wantSunk := *wholeSunk

	for id := int32(0); id < int32(c.NumPSEs()); id++ {
		split := completeSplitSet(c, id)
		if split == nil {
			continue
		}
		plan, err := partition.NewPlan(c.NumPSEs(), 1, split, nil)
		if err != nil {
			t.Fatal(err)
		}
		sendReg, _ := testprog.SinkRegistry()
		recvReg, recvSunk := testprog.SinkRegistry()
		mod := partition.NewModulator(c, interp.NewEnv(classes, sendReg))
		mod.SetPlan(plan)
		demod := partition.NewDemodulator(c, interp.NewEnv(classes, recvReg))

		out, err := mod.Process(event())
		if err != nil {
			t.Fatalf("plan %v: modulate: %v\n%s", split, err, prog)
		}
		if out.Suppressed {
			t.Fatalf("plan %v: random program suppressed (sink path cannot be trivial)", split)
		}
		if out.Cont != nil {
			cov.note(out.Cont)
		}
		res, err := demod.Process(wireHop(t, out))
		if err != nil {
			t.Fatalf("plan %v: demodulate: %v\n%s", split, err, prog)
		}
		if !mir.Equal(res.Return, wantRet) {
			t.Errorf("plan %v: return %v, want %v\n%s", split, res.Return, wantRet, prog)
		}
		if len(*recvSunk) != len(wantSunk) {
			t.Fatalf("plan %v: sunk %d values, want %d", split, len(*recvSunk), len(wantSunk))
		}
		for i := range wantSunk {
			if !mir.Equal((*recvSunk)[i], wantSunk[i]) {
				t.Errorf("plan %v: sink[%d] = %v, want %v", split, i, (*recvSunk)[i], wantSunk[i])
			}
		}
		if n := len(wantSunk); n >= 2 && wantSunk[n-1] == wantSunk[n-2] && (*recvSunk)[n-1] != (*recvSunk)[n-2] {
			t.Errorf("plan %v: aliased object arrived as two objects", split)
		}
	}
}

// TestRandomProgramsSplitEquivalence is the core correctness property: for
// pseudo-random handlers and every individually completable PSE plan, the
// modulator → wire → demodulator path produces exactly the effects and
// return value of the unsplit handler. The objects subtests run handlers
// over declared-class events, with an aliased object, an unset slot and a
// tagged-form event among them.
func TestRandomProgramsSplitEquivalence(t *testing.T) {
	var cov slotCoverage
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkSplitEquivalence(t, testprog.RandomProgram(seed), nil, func() mir.Value { return mir.Int(seed * 31) }, &cov)
		})
	}
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("objects%d", seed), func(t *testing.T) {
			for name, ev := range objectEvents(seed) {
				t.Run(name, func(t *testing.T) {
					checkSplitEquivalence(t, testprog.RandomObjectProgram(seed), testprog.BoxClasses(), ev, &cov)
				})
			}
		})
	}
	t.Logf("continuations carried %d object slots, %d aliased and %d absent", cov.objects, cov.aliased, cov.absent)
	if cov.objects == 0 || cov.aliased == 0 || cov.absent == 0 {
		t.Errorf("object programs never shipped an object (%d), an aliased slot (%d) or an absent one (%d)",
			cov.objects, cov.aliased, cov.absent)
	}
}

// TestRandomProgramsAnalysisInvariants checks structural invariants of the
// analysis on random handlers: PSEs are never infinite edges, every
// TargetPath is cuttable, and hand-over sets are subsets of the liveness
// solution.
func TestRandomProgramsAnalysisInvariants(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		prog := testprog.RandomProgram(seed)
		reg, _ := testprog.SinkRegistry()
		c, err := partition.Compile(prog, nil, reg, costmodel.NewDataSize())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res := c.Analysis
		for _, e := range res.PSESet {
			if res.Infinite[e] {
				t.Errorf("seed %d: PSE %v is infinite", seed, e)
			}
		}
		for pi, p := range res.Paths {
			if len(res.PathPSEs[pi]) == 0 {
				t.Errorf("seed %d: TargetPath %v has no PSEs (DAG programs must always be cuttable)", seed, p)
			}
		}
		for _, pse := range c.PSEs[1:] {
			inter := res.Live.Inter(pse.Edge)
			for _, v := range pse.Vars {
				if !inter[v] {
					t.Errorf("seed %d: PSE %v hand-over var %q not in INTER", seed, pse.Edge, v)
				}
			}
		}
		// The all-PSEs plan must be a valid cut.
		all := make([]int32, 0, c.NumPSEs()-1)
		for id := int32(1); id < int32(c.NumPSEs()); id++ {
			all = append(all, id)
		}
		if err := c.ValidateSplitSet(all); err != nil {
			t.Errorf("seed %d: all-PSE plan invalid: %v", seed, err)
		}
	}
}

// TestRandomProgramsForcedSplitSafety: under the degenerate empty-ish plan
// (only an unreachable PSE flagged), the modulator must still never execute
// the native sink at the sender.
func TestRandomProgramsForcedSplitSafety(t *testing.T) {
	for seed := int64(200); seed < 230; seed++ {
		prog := testprog.RandomProgram(seed)
		oracleReg, _ := testprog.SinkRegistry()
		c, err := partition.Compile(prog, nil, oracleReg, costmodel.NewDataSize())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.NumPSEs() < 2 {
			continue
		}
		plan, err := partition.NewPlan(c.NumPSEs(), 1, []int32{int32(c.NumPSEs()) - 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sendReg, sendSunk := testprog.SinkRegistry()
		mod := partition.NewModulator(c, interp.NewEnv(nil, sendReg))
		mod.SetPlan(plan)
		out, err := mod.Process(mir.Int(7))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(*sendSunk) != 0 {
			t.Errorf("seed %d: native sink executed at the sender", seed)
		}
		if out.Suppressed || (out.Raw == nil && out.Cont == nil) {
			t.Errorf("seed %d: no message produced: %+v", seed, out)
		}
	}
}
