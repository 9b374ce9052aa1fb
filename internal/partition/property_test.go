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

// runWhole executes a program unsplit and returns (sink values, return).
func runWhole(t *testing.T, prog *mir.Program, event mir.Value) ([]mir.Value, mir.Value) {
	t.Helper()
	reg, sunk := testprog.SinkRegistry()
	out := wholeOutcome(t, interp.NewEnv(nil, reg), prog, event)
	return *sunk, out.Return
}

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

// TestRandomProgramsSplitEquivalence is the core correctness property: for
// pseudo-random handlers and every individually completable PSE plan, the
// modulator → wire → demodulator path produces exactly the effects and
// return value of the unsplit handler.
func TestRandomProgramsSplitEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			prog := testprog.RandomProgram(seed)
			oracleReg, _ := testprog.SinkRegistry()
			c, err := partition.Compile(prog, nil, oracleReg, costmodel.NewDataSize())
			if err != nil {
				t.Fatalf("compile: %v\n%s", err, prog)
			}
			event := mir.Int(seed * 31)
			wantSunk, wantRet := runWhole(t, prog, event)

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
				mod := partition.NewModulator(c, interp.NewEnv(nil, sendReg))
				mod.SetPlan(plan)
				demod := partition.NewDemodulator(c, interp.NewEnv(nil, recvReg))

				out, err := mod.Process(event)
				if err != nil {
					t.Fatalf("plan %v: modulate: %v\n%s", split, err, prog)
				}
				if out.Suppressed {
					t.Fatalf("plan %v: random program suppressed (sink path cannot be trivial)", split)
				}
				var msg any
				if out.Raw != nil {
					msg = out.Raw
				} else {
					data, err := wire.Marshal(out.Cont)
					if err != nil {
						t.Fatal(err)
					}
					msg, err = wire.Unmarshal(data)
					if err != nil {
						t.Fatal(err)
					}
				}
				res, err := demod.Process(msg)
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
			}
		})
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
