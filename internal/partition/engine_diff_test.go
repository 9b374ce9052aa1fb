package partition_test

import (
	"errors"
	"fmt"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// wholeOutcome runs prog unsplit on the stepping interpreter, the reference
// engine the compiled endpoints are checked against.
func wholeOutcome(t *testing.T, env *interp.Env, prog *mir.Program, event mir.Value) interp.Outcome {
	t.Helper()
	m, err := interp.NewMachine(env, prog, []mir.Value{event})
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !out.Done {
		t.Fatal("whole run did not complete")
	}
	return out
}

// TestEnginesAgreeOnPush runs the paper's push() example split under every
// completable plan on the compiled endpoints and demands the return value,
// work total and display side effects of the unsplit stepping run of the
// same event.
func TestEnginesAgreeOnPush(t *testing.T) {
	probe := newFixture(t, costmodel.NewDataSize())
	numPSEs := int32(probe.c.NumPSEs())

	events := []struct {
		name string
		make func() mir.Value
	}{
		{"image", func() mir.Value { return testprog.NewImageData(8, 8) }},
		{"filtered", func() mir.Value { return mir.Int(3) }},
	}

	for id := int32(0); id < numPSEs; id++ {
		split := completeSplitSet(probe.c, id)
		if split == nil {
			continue
		}
		for _, ev := range events {
			label := fmt.Sprintf("plan %v event %s", split, ev.name)
			reg, wantShown := testprog.PushBuiltins()
			want := wholeOutcome(t, interp.NewEnv(probe.c.Classes, reg), probe.c.Prog, ev.make())

			f := newFixture(t, costmodel.NewDataSize())
			plan, err := partition.NewPlan(f.c.NumPSEs(), 1, split, nil)
			if err != nil {
				t.Fatal(err)
			}
			f.mod.SetPlan(plan)
			out, res := f.deliver(t, ev.make())
			// A suppressed event stops at the sender before its bare return,
			// so only a delivered one accounts for the whole run's work.
			ret := mir.Value(mir.Null{})
			if res != nil {
				ret = res.Return
				if res.SplitPSE != out.SplitPSE {
					t.Errorf("%s: result PSE %d, modulator split at %d", label, res.SplitPSE, out.SplitPSE)
				}
				if got := out.ModWork + res.DemodWork; got != want.Work {
					t.Errorf("%s: work %d+%d, unsplit %d", label, out.ModWork, res.DemodWork, want.Work)
				}
			}
			if !mir.Equal(ret, want.Return) {
				t.Errorf("%s: return %v, unsplit %v", label, ret, want.Return)
			}
			shown := *f.displayed
			if len(shown) != len(*wantShown) {
				t.Fatalf("%s: displayed %d images, unsplit %d", label, len(shown), len(*wantShown))
			}
			for i := range shown {
				if !mir.Equal(shown[i], (*wantShown)[i]) {
					t.Errorf("%s: displayed image %d differs", label, i)
				}
			}
		}
	}
}

// TestEnginesAgreeOnRandomPrograms is the cross-engine property test: for
// pseudo-random handlers under every completable plan, the compiled
// modulator and demodulator, with every message crossing the wire, match
// the unsplit stepping run in return value, sink effects and total work.
// The objects subtests run handlers over declared-class events.
func TestEnginesAgreeOnRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkEnginesAgree(t, testprog.RandomProgram(seed), nil, func() mir.Value { return mir.Int(seed*17 + 3) })
		})
	}
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("objects%d", seed), func(t *testing.T) {
			for name, ev := range objectEvents(seed) {
				t.Run(name, func(t *testing.T) {
					checkEnginesAgree(t, testprog.RandomObjectProgram(seed), testprog.BoxClasses(), ev)
				})
			}
		})
	}
}

// checkEnginesAgree is one TestEnginesAgreeOnRandomPrograms case.
func checkEnginesAgree(t *testing.T, prog *mir.Program, classes *mir.ClassTable, event func() mir.Value) {
	t.Helper()
	oracleReg, _ := testprog.SinkRegistry()
	c, err := partition.Compile(prog, classes, oracleReg, costmodel.NewDataSize())
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, prog)
	}
	wholeReg, wantSunk := testprog.SinkRegistry()
	want := wholeOutcome(t, interp.NewEnv(classes, wholeReg), prog, event())

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
			t.Fatalf("plan %v: modulate: %v", split, err)
		}
		res, err := demod.Process(wireHop(t, out))
		if err != nil {
			t.Fatalf("plan %v: demodulate: %v", split, err)
		}
		label := fmt.Sprintf("%s plan %v", prog.Name, split)
		if !mir.Equal(res.Return, want.Return) {
			t.Errorf("%s: return %v, unsplit %v", label, res.Return, want.Return)
		}
		if got := out.ModWork + res.DemodWork; got != want.Work {
			t.Errorf("%s: work %d+%d, unsplit %d", label, out.ModWork, res.DemodWork, want.Work)
		}
		if len(*recvSunk) != len(*wantSunk) {
			t.Fatalf("%s: sunk %d values, unsplit %d", label, len(*recvSunk), len(*wantSunk))
		}
		for i := range *wantSunk {
			if !mir.Equal((*recvSunk)[i], (*wantSunk)[i]) {
				t.Errorf("%s: sink[%d] = %v, unsplit %v", label, i, (*recvSunk)[i], (*wantSunk)[i])
			}
		}
	}
}

// TestApplyWirePlanRejectsVersionZero is the regression test for the stale
// version-0 wire plan: a replayed initial plan must not roll the modulator
// back to raw delivery.
func TestApplyWirePlanRejectsVersionZero(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	good := &wire.Plan{Handler: "push", Version: 3, Split: []int32{1, 2}}
	if err := f.mod.ApplyWirePlan(good); err != nil {
		// Not all PSE tables admit {1,2}; fall back to raw at v3.
		good = &wire.Plan{Handler: "push", Version: 3, Split: []int32{partition.RawPSEID}}
		if err := f.mod.ApplyWirePlan(good); err != nil {
			t.Fatal(err)
		}
	}
	replayed := &wire.Plan{Handler: "push", Version: 0, Split: []int32{partition.RawPSEID}}
	err := f.mod.ApplyWirePlan(replayed)
	if !errors.Is(err, partition.ErrStalePlan) {
		t.Fatalf("version-0 wire plan: err = %v, want ErrStalePlan", err)
	}
	if f.mod.Plan().Version() != 3 {
		t.Fatalf("version-0 wire plan changed active version to %d", f.mod.Plan().Version())
	}

	// Version 0 is rejected even on a fresh modulator still at its own v0.
	g := newFixture(t, costmodel.NewDataSize())
	if err := g.mod.ApplyWirePlan(replayed); !errors.Is(err, partition.ErrStalePlan) {
		t.Fatalf("version-0 wire plan on fresh modulator: err = %v, want ErrStalePlan", err)
	}
}
