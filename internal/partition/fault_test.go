package partition_test

import (
	"errors"
	"strings"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// panicRegistry mirrors testprog.PushBuiltins but lets each builtin be
// swapped for one that panics, to prove the split-execution sandbox turns
// interpreter panics into classified errors on both halves.
func panicRegistry(panicInit, panicDisplay bool) *interp.Registry {
	reg := interp.NewRegistry()
	reg.MustRegister(interp.Builtin{
		Name: "initResize",
		Fn: func(env *interp.Env, args []mir.Value) (mir.Value, error) {
			if panicInit {
				panic("initResize exploded")
			}
			return mir.Null{}, nil
		},
	})
	reg.MustRegister(interp.Builtin{
		Name:   "displayImage",
		Native: true,
		Fn: func(env *interp.Env, args []mir.Value) (mir.Value, error) {
			if panicDisplay {
				panic("displayImage exploded")
			}
			return mir.Null{}, nil
		},
	})
	return reg
}

func compileWith(t *testing.T, reg *interp.Registry) (*partition.Compiled, *mir.ClassTable) {
	t.Helper()
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, err := u.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	c, err := partition.Compile(prog, classes, reg, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	return c, classes
}

// TestDemodulatorRecoversPanic: a panicking native at the receiver must
// surface as a runtime-classified error from Process, not a crashed
// goroutine.
func TestDemodulatorRecoversPanic(t *testing.T) {
	reg := panicRegistry(false, true)
	c, classes := compileWith(t, reg)
	demod := partition.NewDemodulator(c, interp.NewEnv(classes, reg))
	res, err := demod.ProcessRaw(&wire.Raw{Seq: 1, Event: testprog.NewImageData(8, 8)})
	if err == nil {
		t.Fatalf("res = %+v, want panic recovered as error", res)
	}
	if got := partition.FaultClassOf(err); got != wire.NackRuntime {
		t.Fatalf("FaultClassOf = %v, want NackRuntime", got)
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "displayImage exploded") {
		t.Fatalf("err = %v, want panic provenance", err)
	}
}

// TestModulatorRecoversPanic: for every plan that executes the panicking
// transform sender-side, Process must return a runtime fault; no plan may
// let the panic escape.
func TestModulatorRecoversPanic(t *testing.T) {
	reg := panicRegistry(true, false)
	c, classes := compileWith(t, reg)
	mod := partition.NewModulator(c, interp.NewEnv(classes, reg))
	sawPanic := false
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		plan, err := partition.NewPlan(c.NumPSEs(), uint64(id), []int32{id}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !mod.SetPlan(plan) {
			t.Fatalf("SetPlan(%v) rejected", plan)
		}
		out, err := mod.Process(testprog.NewImageData(8, 8))
		if err != nil {
			if got := partition.FaultClassOf(err); got != wire.NackRuntime {
				t.Fatalf("pse %d: FaultClassOf = %v, want NackRuntime", id, got)
			}
			if !strings.Contains(err.Error(), "initResize exploded") {
				t.Fatalf("pse %d: err = %v", id, err)
			}
			sawPanic = true
			continue
		}
		if out == nil {
			t.Fatalf("pse %d: nil output with nil error", id)
		}
	}
	if !sawPanic {
		t.Fatal("no plan executed the panicking transform at the sender")
	}
}

// TestDemodulatorBudgetFault: exceeding the receiver's work budget must be
// classified NackBudget so the publisher's breaker can tell resource
// exhaustion from logic faults.
func TestDemodulatorBudgetFault(t *testing.T) {
	reg, _ := testprog.PushBuiltins()
	c, classes := compileWith(t, reg)
	env := interp.NewEnv(classes, reg)
	env.MaxWork = 1
	demod := partition.NewDemodulator(c, env)
	_, err := demod.ProcessRaw(&wire.Raw{Seq: 1, Event: testprog.NewImageData(8, 8)})
	if err == nil {
		t.Fatal("want work-budget error")
	}
	if !errors.Is(err, interp.ErrWorkBudget) {
		t.Fatalf("err = %v, want ErrWorkBudget in chain", err)
	}
	if got := partition.FaultClassOf(err); got != wire.NackBudget {
		t.Fatalf("FaultClassOf = %v, want NackBudget", got)
	}
}

// TestDemodulatorFaultClasses: each failure mode carries its protocol
// error class so NACKs attribute faults correctly.
func TestDemodulatorFaultClasses(t *testing.T) {
	reg, _ := testprog.PushBuiltins()
	c, classes := compileWith(t, reg)
	demod := partition.NewDemodulator(c, interp.NewEnv(classes, reg))

	cases := []struct {
		name string
		msg  any
		want wire.NackClass
	}{
		{"foreign class index", undecodedRaw(t, []byte{byte(wire.MsgRaw), 1, 11 /* tagClass */, 9}), wire.NackDecode},
		{"unknown message", "not a message", wire.NackDecode},
		{"unknown pse", &wire.Continuation{Seq: 2, PSEID: 1 << 20}, wire.NackRestore},
		{"unknown forced split", &wire.Continuation{Seq: 2, PSEID: partition.ForcedSplit, Forced: 1 << 20}, wire.NackRestore},
		{"wrong slot count", &wire.Continuation{Seq: 2, PSEID: 1, Vars: make([]wire.Slot, len(c.PSEs[1].Vars)+1)}, wire.NackRestore},
	}
	for _, tc := range cases {
		_, err := demod.Process(tc.msg)
		if err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
		if got := partition.FaultClassOf(err); got != tc.want {
			t.Fatalf("%s: FaultClassOf = %v, want %v (err: %v)", tc.name, got, tc.want, err)
		}
	}
}

// undecodedRaw unmarshals a hand-built Raw frame, leaving its event for
// the demodulator to decode.
func undecodedRaw(t *testing.T, frame []byte) any {
	t.Helper()
	msg, err := wire.Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// FuzzDemodulatorProcess: the demodulator is the trust boundary of the
// protocol — whatever frame the wire decodes, Process must return a result
// or an error, never panic. Seeds cover a valid raw frame, a valid
// continuation, and one whose slot holds the wrong type, so the fuzzer
// starts inside the positional slot decoder.
func FuzzDemodulatorProcess(f *testing.F) {
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, err := u.ClassTable()
	if err != nil {
		f.Fatal(err)
	}
	reg, _ := testprog.PushBuiltins()
	c, err := partition.Compile(prog, classes, reg, costmodel.NewDataSize())
	if err != nil {
		f.Fatal(err)
	}
	env := interp.NewEnv(classes, reg)
	env.MaxSteps = 100_000
	env.MaxWork = 100_000
	demod := partition.NewDemodulator(c, env)

	var withVars []int32
	for _, p := range c.PSEs {
		if len(p.Vars) > 0 {
			withVars = append(withVars, p.ID)
		}
	}
	if len(withVars) < 3 {
		f.Fatalf("push has %d PSEs with variables; the seeds need the raw PSE and two more", len(withVars))
	}
	img := testprog.NewImageData(8, 8)
	valid := make([]wire.Slot, len(c.PSEs[withVars[1]].Vars))
	for i := range valid {
		valid[i] = wire.ValueSlot(img)
	}
	wrong := make([]wire.Slot, len(c.PSEs[withVars[2]].Vars))
	for i := range wrong {
		wrong[i] = wire.ValueSlot(mir.Str("wrong type"))
	}
	seedMsgs := []any{
		&wire.Raw{Seq: 1, Event: img, Schema: c.Schema},
		&wire.Continuation{Seq: 2, PSEID: withVars[1], Vars: valid, Schema: c.Schema},
		&wire.Continuation{Seq: 3, PSEID: withVars[2], Vars: wrong, Schema: c.Schema},
	}
	for _, m := range seedMsgs {
		data, err := wire.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		switch msg.(type) {
		case *wire.Raw, *wire.Continuation:
			res, err := demod.Process(msg)
			if err == nil && res == nil {
				t.Fatalf("nil result with nil error for %T", msg)
			}
		}
	})
}
