package testprog

import (
	"fmt"
	"math/rand"

	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
)

// RandomProgram generates a deterministic pseudo-random handler: integer
// arithmetic interleaved with structured if-blocks (forward branches only,
// so the UG is a DAG and every edge is convex), ending in a native sink
// call and a return. Generation is structured so every register is defined
// on all paths before use, and the final value depends on the whole
// computation — any incorrect split/restore changes the sink value.
//
// Property tests use it: for every PSE of a random program, splitting there
// and remotely continuing must produce the same sink effects as running the
// handler whole.
func RandomProgram(seed int64) *mir.Program {
	return randomProgram(seed, false)
}

// BoxClass is the declared class of RandomObjectProgram's events.
var BoxClass = mir.ClassDef{Name: "Box", Fields: []mir.FieldDef{
	{Name: "n", Kind: mir.KindInt},
	{Name: "data", Kind: mir.KindBytes},
}}

// BoxClasses returns a class table declaring BoxClass.
func BoxClasses() *mir.ClassTable { return mir.MustClassTable(BoxClass) }

// NewBox builds a Box event holding n and a data array of size bytes.
func NewBox(n int64, size int) *mir.Object {
	b := mir.NewObject(BoxClass.Name)
	b.Fields["n"] = mir.Int(n)
	data := make(mir.Bytes, size)
	for i := range data {
		data[i] = byte(i + int(n))
	}
	b.Fields["data"] = data
	return b
}

// RandomObjectProgram is RandomProgram over a Box event (see NewBox): the
// arithmetic starts from the event's n, and the handler keeps the event
// live to the end under two registers, so every continuation carries one
// declared-class object aliased in two slots. A register it sets only when
// n < 256 (the event's data) is live across the body without being set on
// every path, so continuations can carry it as an absent slot. The
// epilogue sinks the accumulator, the data length when set, and the event
// under both registers.
func RandomObjectProgram(seed int64) *mir.Program {
	return randomProgram(seed, true)
}

func randomProgram(seed int64, objects bool) *mir.Program {
	rng := rand.New(rand.NewSource(seed))

	var (
		instrs  []mir.Instr
		defined = []string{"event"}
		pending string // label to attach to the next emitted instruction
		nextReg int
		nextLbl int
	)
	emit := func(in mir.Instr) {
		in.Label = pending
		pending = ""
		instrs = append(instrs, in)
	}
	if objects {
		emit(mir.Instr{Op: mir.OpMove, Dst: "alias", Src: "event"})
		emit(mir.Instr{Op: mir.OpGetField, Dst: "n0", Src: "event", Field: "n"})
		emit(mir.Instr{Op: mir.OpConst, Dst: "lim", Lit: mir.Int(256)})
		emit(mir.Instr{Op: mir.OpBin, Dst: "small", Bin: mir.BinLt, Src: "n0", Src2: "lim"})
		emit(mir.Instr{Op: mir.OpIfNot, Src: "small", Target: "Lopt"})
		emit(mir.Instr{Op: mir.OpGetField, Dst: "opt", Src: "event", Field: "data"})
		pending = "Lopt"
		defined = []string{"n0"}
	}
	reg := func() string {
		nextReg++
		return fmt.Sprintf("r%d", nextReg)
	}
	pick := func() string { return defined[rng.Intn(len(defined))] }

	segments := 4 + rng.Intn(8)
	for s := 0; s < segments; s++ {
		switch rng.Intn(5) {
		case 0:
			dst := reg()
			emit(mir.Instr{Op: mir.OpConst, Dst: dst, Lit: mir.Int(rng.Intn(1000) - 500)})
			defined = append(defined, dst)
		case 1, 2:
			dst := reg()
			ops := []mir.BinKind{mir.BinAdd, mir.BinSub, mir.BinMul}
			emit(mir.Instr{Op: mir.OpBin, Dst: dst, Bin: ops[rng.Intn(len(ops))], Src: pick(), Src2: pick()})
			defined = append(defined, dst)
		case 3:
			dst := reg()
			emit(mir.Instr{Op: mir.OpMove, Dst: dst, Src: pick()})
			defined = append(defined, dst)
		default:
			// Structured if-block: out is defined on both paths; the
			// block's scratch registers are used only inside it.
			cond := reg()
			cmp := []mir.BinKind{mir.BinLt, mir.BinGe, mir.BinEq, mir.BinNe}
			emit(mir.Instr{Op: mir.OpBin, Dst: cond, Bin: cmp[rng.Intn(len(cmp))], Src: pick(), Src2: pick()})
			out := reg()
			emit(mir.Instr{Op: mir.OpConst, Dst: out, Lit: mir.Int(rng.Intn(9))})
			nextLbl++
			lbl := fmt.Sprintf("L%d", nextLbl)
			emit(mir.Instr{Op: mir.OpIfNot, Src: cond, Target: lbl})
			blockLen := 1 + rng.Intn(3)
			scratch := pick()
			for b := 0; b < blockLen; b++ {
				t := reg()
				emit(mir.Instr{Op: mir.OpBin, Dst: t, Bin: mir.BinAdd, Src: scratch, Src2: pick()})
				scratch = t
			}
			emit(mir.Instr{Op: mir.OpMove, Dst: out, Src: scratch})
			pending = lbl
			defined = append(defined, out)
		}
	}
	// Epilogue: fold registers into an accumulator, sink it natively,
	// return it. Attaches any pending label.
	acc := "acc"
	emit(mir.Instr{Op: mir.OpConst, Dst: acc, Lit: mir.Int(1)})
	folds := 2 + rng.Intn(3)
	for i := 0; i < folds; i++ {
		emit(mir.Instr{Op: mir.OpBin, Dst: acc, Bin: mir.BinAdd, Src: acc, Src2: pick()})
	}
	emit(mir.Instr{Op: mir.OpCall, Fn: "sink", Args: []string{acc}})
	if objects {
		emit(mir.Instr{Op: mir.OpIfNot, Src: "small", Target: "Lend"})
		emit(mir.Instr{Op: mir.OpLen, Dst: "olen", Src: "opt"})
		emit(mir.Instr{Op: mir.OpCall, Fn: "sink", Args: []string{"olen"}})
		pending = "Lend"
		emit(mir.Instr{Op: mir.OpCall, Fn: "sink", Args: []string{"alias"}})
		emit(mir.Instr{Op: mir.OpCall, Fn: "sink", Args: []string{"event"}})
	}
	emit(mir.Instr{Op: mir.OpReturn, Src: acc})

	name := fmt.Sprintf("rand%d", seed)
	if objects {
		name = fmt.Sprintf("boxrand%d", seed)
	}
	prog, err := mir.NewProgram(name, []string{"event"}, instrs)
	if err != nil {
		panic(fmt.Sprintf("testprog: generated invalid program (seed %d): %v", seed, err))
	}
	return prog
}

// SinkRegistry returns a registry with the native sink used by random
// programs, recording every sunk value.
func SinkRegistry() (*interp.Registry, *[]mir.Value) {
	sunk := &[]mir.Value{}
	reg := interp.NewRegistry()
	reg.MustRegister(interp.Builtin{
		Name:   "sink",
		Native: true,
		Fn: func(env *interp.Env, args []mir.Value) (mir.Value, error) {
			*sunk = append(*sunk, args[0])
			return mir.Null{}, nil
		},
	})
	return reg, sunk
}
