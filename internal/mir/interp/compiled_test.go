package interp

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/wire"
)

// compileOrDie lowers a parsed program with the given watch set.
func compileOrDie(t *testing.T, prog *mir.Program, watch []Edge) *Code {
	t.Helper()
	code, err := Compile(prog, CompileOptions{Watch: watch})
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// errText renders an error for exact comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// diffCase is one program run through both engines.
type diffCase struct {
	name string
	src  string
	args []mir.Value
	// reg optionally supplies a registry factory (fresh per engine so
	// side-effecting builtins cannot couple the two runs).
	reg func() *Registry
	// maxSteps/maxWork set resource bounds when non-zero.
	maxSteps int64
	maxWork  int64
}

// diffEnv builds a fresh environment for one engine run of a case.
func diffEnv(t *testing.T, u *asm.Unit, c diffCase) *Env {
	t.Helper()
	tbl, err := u.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if c.reg != nil {
		reg = c.reg()
	}
	env := NewEnv(tbl, reg)
	if c.maxSteps != 0 {
		env.MaxSteps = c.maxSteps
	}
	if c.maxWork != 0 {
		env.MaxWork = c.maxWork
	}
	return env
}

// copyArgs deep-copies the argument list so engines cannot observe each
// other's mutations of arrays or objects.
func copyArgs(args []mir.Value) []mir.Value {
	out := make([]mir.Value, len(args))
	for i, a := range args {
		out[i] = mir.Copy(a)
	}
	return out
}

// diffCases is the differential corpus: every opcode family, the promotion
// and error paths, and the resource bounds.
var diffCases = []diffCase{
	{name: "int arithmetic", src: `
func f(a, b) {
  s = add a b
  d = sub a b
  p = mul a b
  q = div a b
  r = mod a b
  t0 = mul p q
  t1 = add t0 r
  t2 = add t1 s
  t3 = add t2 d
  return t3
}
`, args: []mir.Value{mir.Int(17), mir.Int(5)}},
	{name: "float promotion", src: `
func f(a, b) {
  s = add a b
  d = sub a b
  p = mul s d
  q = div p b
  lt = lt a b
  ge = ge p q
  both = and lt ge
  return both
}
`, args: []mir.Value{mir.Int(3), mir.Float(0.5)}},
	{name: "string concat and compare", src: `
func f(a, b) {
  s = add a b
  e = eq s a
  n = ne a b
  l = lt a b
  g = len s
  return g
}
`, args: []mir.Value{mir.Str("foo"), mir.Str("bar")}},
	{name: "loop over int array", src: `
func sum(arr) {
  n = len arr
  i = const 0
  acc = const 0
loop:
  done = ge i n
  if done goto finish
  v = arrget arr i
  acc = add acc v
  one = const 1
  i = add i one
  goto loop
finish:
  return acc
}
`, args: []mir.Value{mir.IntArray{5, 4, 3, 2, 1, 0, -1}}},
	{name: "arrays of every kind", src: `
func f(n) {
  a = newarray int n
  b = newarray float n
  c = newarray bytes n
  i = const 1
  v = const 7
  arrset a i v
  fv = const 2.5
  arrset b i fv
  bv = const 200
  arrset c i bv
  x = arrget a i
  y = arrget b i
  z = arrget c i
  fx = i2f x
  s = add fx y
  zi = i2f z
  s = add s zi
  r = f2i s
  return r
}
`, args: []mir.Value{mir.Int(4)}},
	{name: "objects and casts", src: `
class P {
  x int
  y int
}

func f(e) {
  is = instanceof e P
  ifnot is goto other
  p = cast e P
  gx = getfield p x
  q = new P
  setfield q x gx
  two = const 2
  setfield q y two
  gy = getfield q y
  s = add gx gy
  return s
other:
  zero = const 0
  return zero
}
`, args: []mir.Value{func() mir.Value {
		o := mir.NewObject("P")
		o.Fields["x"] = mir.Int(40)
		o.Fields["y"] = mir.Int(0)
		return o
	}()}},
	{name: "instanceof filter path", src: `
class P {
  x int
}

func f(e) {
  is = instanceof e P
  ifnot is goto other
  one = const 1
  return one
other:
  zero = const 0
  return zero
}
`, args: []mir.Value{mir.Int(9)}},
	{name: "globals", src: `
func f(x) {
  g0 = getglobal counter
  setglobal counter x
  g1 = getglobal counter
  eqn = eq g0 g1
  return eqn
}
`, args: []mir.Value{mir.Int(5)}},
	{name: "builtin with cost", src: `
func f(x) {
  y = call double x
  z = call double y
  return z
}
`, args: []mir.Value{mir.Int(21)}, reg: func() *Registry {
		reg := NewRegistry()
		reg.MustRegister(Builtin{
			Name: "double",
			Fn: func(env *Env, args []mir.Value) (mir.Value, error) {
				return args[0].(mir.Int) * 2, nil
			},
			Cost: func(args []mir.Value) int64 { return 100 },
		})
		return reg
	}},
	{name: "unary ops", src: `
func f(a, b) {
  n = neg a
  fv = i2f n
  nf = neg fv
  i = f2i nf
  t = eq i a
  nt = not t
  return nt
}
`, args: []mir.Value{mir.Int(12), mir.Float(1.5)}},
	{name: "bool logic", src: `
func f(a, b) {
  c = and a b
  d = or a b
  e = eq c d
  return e
}
`, args: []mir.Value{mir.Bool(true), mir.Bool(false)}},
	{name: "eq across kinds", src: `
func f(a, b) {
  e = eq a b
  n = ne a b
  r = or e n
  return r
}
`, args: []mir.Value{mir.Int(1), mir.Float(1)}},
	{name: "branch on int condition", src: `
func f(x) {
  if x goto yes
  zero = const 0
  return zero
yes:
  one = const 1
  return one
}
`, args: []mir.Value{mir.Int(7)}},
	{name: "null return", src: `
func f(x) {
  return
}
`, args: []mir.Value{mir.Int(1)}},

	// Error paths: the engines promise byte-identical error text.
	{name: "err int division by zero", src: `
func f(a, b) {
  q = div a b
  return q
}
`, args: []mir.Value{mir.Int(1), mir.Int(0)}},
	{name: "err float division by zero", src: `
func f(a, b) {
  q = div a b
  return q
}
`, args: []mir.Value{mir.Float(1), mir.Float(0)}},
	{name: "err mod by zero", src: `
func f(a, b) {
  q = mod a b
  return q
}
`, args: []mir.Value{mir.Int(1), mir.Int(0)}},
	{name: "err mod on floats", src: `
func f(a, b) {
  q = mod a b
  return q
}
`, args: []mir.Value{mir.Float(1.5), mir.Float(2)}},
	{name: "err unset register", src: `
func f(x) {
  y = move nope
  return y
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err add object", src: `
class C {
  v int
}

func f(x) {
  o = new C
  s = add o x
  return s
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err bad cast", src: `
class C {
  v int
}

func f(x) {
  c = cast x C
  return c
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err unknown builtin", src: `
func f(x) {
  y = call nope x
  return y
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err getfield on int", src: `
func f(x) {
  y = getfield x w
  return y
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err unknown field", src: `
class C {
  v int
}

func f(x) {
  o = new C
  y = getfield o nope
  return y
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err arrget on scalar", src: `
func f(x) {
  i = const 0
  v = arrget x i
  return v
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err index out of range", src: `
func f(x) {
  i = const 9
  v = arrget x i
  return v
}
`, args: []mir.Value{mir.IntArray{1, 2}}},
	{name: "err arrset element kind", src: `
func f(x) {
  i = const 0
  v = const 1.5
  arrset x i v
  return
}
`, args: []mir.Value{mir.IntArray{1}}},
	{name: "err negative array length", src: `
func f(x) {
  n = const -3
  a = newarray int n
  return a
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err newarray non-int length", src: `
func f(x) {
  a = newarray int x
  return a
}
`, args: []mir.Value{mir.Str("n")}},
	{name: "err len of int", src: `
func f(x) {
  n = len x
  return n
}
`, args: []mir.Value{mir.Int(1)}},
	{name: "err branch on string", src: `
func f(x) {
  if x goto l
l:
  return
}
`, args: []mir.Value{mir.Str("s")}},
	{name: "err step limit", src: `
func spin(x) {
loop:
  one = const 1
  x = add x one
  goto loop
}
`, args: []mir.Value{mir.Int(0)}, maxSteps: 1000},
	{name: "err work budget", src: `
func spin(x) {
loop:
  one = const 1
  x = add x one
  goto loop
}
`, args: []mir.Value{mir.Int(0)}, maxWork: 643},
}

// runStepping executes a case on the stepping machine.
func runStepping(t *testing.T, u *asm.Unit, c diffCase, hook EdgeHook) (Outcome, error, *Machine) {
	t.Helper()
	env := diffEnv(t, u, c)
	m, err := NewMachine(env, u.Programs[0], copyArgs(c.args))
	if err != nil {
		t.Fatal(err)
	}
	m.Hook = hook
	out, err := m.Run()
	return out, err, m
}

// runCompiled executes a case on the compiled engine with the given watch
// set (nil = watch everything).
func runCompiled(t *testing.T, u *asm.Unit, c diffCase, watch []Edge, hook EdgeHook) (Outcome, error, *CodeMachine) {
	t.Helper()
	env := diffEnv(t, u, c)
	code := compileOrDie(t, u.Programs[0], watch)
	m, err := code.NewMachine(env, copyArgs(c.args))
	if err != nil {
		t.Fatal(err)
	}
	m.Hook = hook
	out, err := m.Run()
	return out, err, m
}

// compareOutcomes asserts both engines produced identical results: outcome
// flags, return value, work and step accounting, and exact error text.
func compareOutcomes(t *testing.T, label string, sout Outcome, serr error, cout Outcome, cerr error) {
	t.Helper()
	if got, want := errText(cerr), errText(serr); got != want {
		t.Errorf("%s: compiled err %q, stepping err %q", label, got, want)
	}
	if cout.Done != sout.Done {
		t.Errorf("%s: compiled done=%v, stepping done=%v", label, cout.Done, sout.Done)
	}
	if !mir.Equal(cout.Return, sout.Return) {
		t.Errorf("%s: compiled return %v, stepping return %v", label, cout.Return, sout.Return)
	}
	if cout.Split != sout.Split {
		t.Errorf("%s: compiled split %v, stepping split %v", label, cout.Split, sout.Split)
	}
	if cout.Work != sout.Work {
		t.Errorf("%s: compiled work %d, stepping work %d", label, cout.Work, sout.Work)
	}
	if cout.Steps != sout.Steps {
		t.Errorf("%s: compiled steps %d, stepping steps %d", label, cout.Steps, sout.Steps)
	}
}

// TestEngineDifferential runs the corpus through both engines twice — once
// with every edge watched (no fusion, full hook parity) and once with no
// edges watched (maximal fusion) — and demands identical outcomes, register
// files and error text.
func TestEngineDifferential(t *testing.T) {
	for _, c := range diffCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			u := parseOrDie(t, c.src)
			prog := u.Programs[0]
			sout, serr, sm := runStepping(t, u, c, nil)
			for _, w := range []struct {
				name  string
				watch []Edge
			}{
				{"watch-all", nil},
				{"watch-none", []Edge{}},
			} {
				cout, cerr, cm := runCompiled(t, u, c, w.watch, nil)
				compareOutcomes(t, w.name, sout, serr, cout, cerr)
				for _, r := range prog.Registers() {
					sv, sok := sm.Reg(r)
					cv, cok := cm.Reg(r)
					if sok != cok || !mir.Equal(sv, cv) {
						t.Errorf("%s: register %q: compiled (%v,%v), stepping (%v,%v)", w.name, r, cv, cok, sv, sok)
					}
				}
				cm.Release()
			}
		})
	}
}

// TestEngineEdgeTraceParity: with every edge watched, the compiled engine
// must deliver exactly the stepping engine's edge sequence to the hook.
func TestEngineEdgeTraceParity(t *testing.T) {
	c := diffCases[3] // loop over int array
	u := parseOrDie(t, c.src)
	var strace []Edge
	_, _, _ = runStepping(t, u, c, func(e Edge) bool {
		strace = append(strace, e)
		return false
	})
	var ctrace []Edge
	_, _, cm := runCompiled(t, u, c, nil, func(e Edge) bool {
		ctrace = append(ctrace, e)
		return false
	})
	defer cm.Release()
	if len(strace) == 0 {
		t.Fatal("stepping run observed no edges")
	}
	if len(ctrace) != len(strace) {
		t.Fatalf("compiled observed %d edges, stepping %d", len(ctrace), len(strace))
	}
	for i := range strace {
		if ctrace[i] != strace[i] {
			t.Fatalf("edge %d: compiled %v, stepping %v", i, ctrace[i], strace[i])
		}
	}
}

// TestEngineSplitParity splits both engines at every node and checks the
// stopped outcome, the snapshot, and the completion of a cross-restored
// continuation (compiled snapshot resumed on the stepping engine and vice
// versa) all agree with the unsplit run.
func TestEngineSplitParity(t *testing.T) {
	c := diffCases[3] // loop over int array
	u := parseOrDie(t, c.src)
	prog := u.Programs[0]
	wout, werr, _ := runStepping(t, u, c, nil)
	if werr != nil {
		t.Fatal(werr)
	}

	for splitAt := 1; splitAt < len(prog.Instrs); splitAt++ {
		target := splitAt
		hook := func(e Edge) bool { return e.To == target }
		sout, serr, sm := runStepping(t, u, c, hook)
		cout, cerr, cm := runCompiled(t, u, c, nil, hook)
		label := fmt.Sprintf("split at %d", splitAt)
		compareOutcomes(t, label, sout, serr, cout, cerr)
		if serr != nil || sout.Done {
			cm.Release()
			continue
		}
		ssnap := sm.Snapshot(prog.Registers())
		csnap := cm.Snapshot(prog.Registers())
		if len(ssnap) != len(csnap) {
			t.Errorf("%s: snapshot sizes %d vs %d", label, len(csnap), len(ssnap))
		}
		for k, sv := range ssnap {
			if cv, ok := csnap[k]; !ok || !mir.Equal(sv, cv) {
				t.Errorf("%s: snapshot %q: compiled %v, stepping %v", label, k, cv, sv)
			}
		}
		// LiveSize prices the registers in place exactly as a Sizer
		// prices the snapshot, on both engines.
		var want int64
		sz := wire.NewSizer()
		for _, n := range prog.Registers() {
			if v, ok := ssnap[n]; ok {
				want += wire.NameSize(n) + sz.Size(v)
			}
		}
		if got := sm.LiveSize(prog.Registers(), wire.NewSizer()); got != want {
			t.Errorf("%s: stepping LiveSize %d, snapshot prices %d", label, got, want)
		}
		if got := cm.LiveSize(prog.Registers(), wire.NewSizer()); got != want {
			t.Errorf("%s: compiled LiveSize %d, snapshot prices %d", label, got, want)
		}
		cm.Release()

		// Cross-restore: each engine finishes the other's continuation.
		code := compileOrDie(t, prog, nil)
		env := diffEnv(t, u, c)
		rm, err := code.Restore(env, sout.Split.To, ssnap)
		if err != nil {
			t.Fatal(err)
		}
		rout, err := rm.Run()
		if err != nil {
			t.Fatalf("%s: compiled resume: %v", label, err)
		}
		if !mir.Equal(rout.Return, wout.Return) {
			t.Errorf("%s: compiled resume return %v, want %v", label, rout.Return, wout.Return)
		}
		if sout.Work+rout.Work != wout.Work {
			t.Errorf("%s: split work %d+%d != %d", label, sout.Work, rout.Work, wout.Work)
		}
		rm.Release()

		sm2, err := Restore(diffEnv(t, u, c), prog, cout.Split.To, csnap)
		if err != nil {
			t.Fatal(err)
		}
		rout2, err := sm2.Run()
		if err != nil {
			t.Fatalf("%s: stepping resume: %v", label, err)
		}
		if !mir.Equal(rout2.Return, wout.Return) {
			t.Errorf("%s: stepping resume return %v, want %v", label, rout2.Return, wout.Return)
		}
	}
}

// TestRestoreIntoFusedChain resumes a maximally-fused program at every
// instruction index, including the middles of superinstruction chains, and
// checks the suffix execution is exact (the compiler keeps a chain-suffix op
// at every index precisely for this).
func TestRestoreIntoFusedChain(t *testing.T) {
	c := diffCases[0] // straight-line int arithmetic: one long fused chain
	u := parseOrDie(t, c.src)
	prog := u.Programs[0]
	code := compileOrDie(t, prog, []Edge{})
	if code.Superinstructions() == 0 {
		t.Fatal("straight-line program compiled with no superinstructions")
	}
	wout, werr, _ := runStepping(t, u, c, nil)
	if werr != nil {
		t.Fatal(werr)
	}
	for splitAt := 1; splitAt < len(prog.Instrs); splitAt++ {
		target := splitAt
		sout, serr, sm := runStepping(t, u, c, func(e Edge) bool { return e.To == target })
		if serr != nil || sout.Done {
			continue
		}
		snap := sm.Snapshot(prog.Registers())
		rm, err := code.Restore(diffEnv(t, u, c), sout.Split.To, snap)
		if err != nil {
			t.Fatal(err)
		}
		rout, err := rm.Run()
		if err != nil {
			t.Fatalf("resume at %d: %v", splitAt, err)
		}
		if !mir.Equal(rout.Return, wout.Return) {
			t.Errorf("resume at %d: return %v, want %v", splitAt, rout.Return, wout.Return)
		}
		if sout.Work+rout.Work != wout.Work {
			t.Errorf("resume at %d: work %d+%d != %d", splitAt, sout.Work, rout.Work, wout.Work)
		}
		if sout.Steps+rout.Steps != wout.Steps {
			t.Errorf("resume at %d: steps %d+%d != %d", splitAt, sout.Steps, rout.Steps, wout.Steps)
		}
		rm.Release()
	}
}

// TestWatchSetGatesHooks: only watched edges reach the hook, and a partial
// watch set still produces correct results while fusing the rest.
func TestWatchSetGatesHooks(t *testing.T) {
	c := diffCases[3] // loop over int array
	u := parseOrDie(t, c.src)
	prog := u.Programs[0]

	// The back edge of the loop (goto loop) is the only watched edge.
	var backFrom int
	for i := range prog.Instrs {
		if prog.Instrs[i].Op == mir.OpGoto {
			backFrom = i
		}
	}
	watch := []Edge{{From: backFrom, To: 3}}
	var seen []Edge
	cout, cerr, cm := runCompiled(t, u, c, watch, func(e Edge) bool {
		seen = append(seen, e)
		return false
	})
	defer cm.Release()
	if cerr != nil {
		t.Fatal(cerr)
	}
	sout, serr, _ := runStepping(t, u, c, nil)
	if serr != nil {
		t.Fatal(serr)
	}
	compareOutcomes(t, "partial watch", sout, serr, cout, cerr)
	if len(seen) == 0 {
		t.Fatal("watched edge never reported")
	}
	for _, e := range seen {
		if e != (Edge{From: backFrom, To: 3}) {
			t.Fatalf("hook saw unwatched edge %v", e)
		}
	}

	// With nothing watched the hook must stay silent.
	seen = nil
	_, cerr, cm2 := runCompiled(t, u, c, []Edge{}, func(e Edge) bool {
		seen = append(seen, e)
		return false
	})
	defer cm2.Release()
	if cerr != nil {
		t.Fatal(cerr)
	}
	if len(seen) != 0 {
		t.Fatalf("empty watch set delivered %d edges", len(seen))
	}
}

// TestCompileRejectsStructuralDefects: lowering fails up front on the
// defects that used to miscompile at runtime.
func TestCompileRejectsStructuralDefects(t *testing.T) {
	cases := []struct {
		name   string
		prog   *mir.Program
		errSub string
	}{
		{"empty program", &mir.Program{Name: "empty"}, "no instructions"},
		{"falls off the end", &mir.Program{Name: "open", Instrs: []mir.Instr{
			{Op: mir.OpConst, Dst: "x", Lit: mir.Int(1)},
		}}, "falls off the end"},
		{"undefined label", &mir.Program{Name: "dangling", Instrs: []mir.Instr{
			{Op: mir.OpGoto, Target: "nowhere"},
			{Op: mir.OpReturn},
		}}, `undefined label "nowhere"`},
		{"undefined branch label", &mir.Program{Name: "dangling2", Params: []string{"x"}, Instrs: []mir.Instr{
			{Op: mir.OpIf, Src: "x", Target: "gone"},
			{Op: mir.OpReturn},
		}}, `undefined label "gone"`},
		{"duplicate label", &mir.Program{Name: "dup", Instrs: []mir.Instr{
			{Op: mir.OpConst, Dst: "x", Lit: mir.Int(1), Label: "l"},
			{Op: mir.OpConst, Dst: "y", Lit: mir.Int(2), Label: "l"},
			{Op: mir.OpReturn},
		}}, `duplicate label "l"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.prog, CompileOptions{})
			if err == nil || !strings.Contains(err.Error(), c.errSub) {
				t.Fatalf("err = %v, want %q", err, c.errSub)
			}
		})
	}
}

// TestSteppingUndefinedLabelIsRuntimeError is the regression test for the
// silent-miscompilation bug: a dangling branch on an unvalidated program
// used to jump to instruction 0; it must be a runtime error.
func TestSteppingUndefinedLabelIsRuntimeError(t *testing.T) {
	for _, op := range []mir.Op{mir.OpGoto, mir.OpIf} {
		prog := &mir.Program{Name: "dangling", Params: []string{"x"}, Instrs: []mir.Instr{
			{Op: op, Src: "x", Target: "nowhere"},
			{Op: mir.OpReturn},
		}}
		env := NewEnv(nil, NewRegistry())
		m, err := NewMachine(env, prog, []mir.Value{mir.Int(1)})
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run()
		if err == nil || !strings.Contains(err.Error(), `undefined label "nowhere"`) {
			t.Fatalf("op %v: err = %v, want undefined-label runtime error", op, err)
		}
	}
}

// TestSuccessorsUndefinedLabelErrors is the regression test for the analysis
// half of the same bug: Successors must error on a dangling branch, not
// fabricate an edge to instruction 0.
func TestSuccessorsUndefinedLabelErrors(t *testing.T) {
	prog := &mir.Program{Name: "dangling", Instrs: []mir.Instr{
		{Op: mir.OpGoto, Target: "nowhere"},
		{Op: mir.OpReturn},
	}}
	if _, err := prog.Successors(0); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("Successors err = %v, want undefined-label error", err)
	}
}

// TestF2ISaturates is the regression test for the float→int conversion: it
// must saturate Java-style instead of going through Go's undefined
// out-of-range conversion.
func TestF2ISaturates(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{math.NaN(), 0},
		{math.Inf(1), math.MaxInt64},
		{math.Inf(-1), math.MinInt64},
		{1e30, math.MaxInt64},
		{-1e30, math.MinInt64},
		{9.25e18, math.MaxInt64},
		{-9.25e18, math.MinInt64},
		{1.9, 1},
		{-1.9, -1},
		{0, 0},
	}
	u := parseOrDie(t, `
func f(x) {
  y = f2i x
  return y
}
`)
	for _, c := range cases {
		if got := f2i(c.in); got != c.want {
			t.Errorf("f2i(%v) = %d, want %d", c.in, got, c.want)
		}
		// Both engines must agree with the saturating helper.
		dc := diffCase{args: []mir.Value{mir.Float(c.in)}}
		sout, serr, _ := runStepping(t, u, dc, nil)
		cout, cerr, cm := runCompiled(t, u, dc, nil, nil)
		if serr != nil || cerr != nil {
			t.Fatalf("f2i(%v): errors %v / %v", c.in, serr, cerr)
		}
		if sout.Return != mir.Int(c.want) || cout.Return != mir.Int(c.want) {
			t.Errorf("f2i(%v): stepping %v, compiled %v, want %d", c.in, sout.Return, cout.Return, c.want)
		}
		cm.Release()
	}
}

// TestCompiledRunAllocs guards the pooled steady state: a full
// acquire/run/release cycle on the compiled engine must not allocate.
func TestCompiledRunAllocs(t *testing.T) {
	u := parseOrDie(t, `
func sum(arr) {
  n = len arr
  i = const 0
  acc = const 0
loop:
  done = ge i n
  if done goto finish
  v = arrget arr i
  m = mod v n
  acc = add acc m
  one = const 1
  i = add i one
  goto loop
finish:
  ok = lt acc n
  return ok
}
`)
	prog := u.Programs[0]
	code := compileOrDie(t, prog, []Edge{})
	env := NewEnv(nil, NewRegistry())
	arr := make(mir.IntArray, 64)
	for i := range arr {
		arr[i] = int64(i * 3)
	}
	args := []mir.Value{arr}

	cycle := func() {
		m, err := code.NewMachine(env, args)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !out.Done {
			t.Fatal("run did not complete")
		}
		m.Release()
	}
	cycle() // warm the pool
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("compiled run allocates %.1f times per message, want 0", avg)
	}
}

// BenchmarkEngineLoop compares the raw engines on a tight integer loop with
// no hooks — the upper bound of the compiled engine's advantage.
func BenchmarkEngineLoop(b *testing.B) {
	u, err := asm.Parse(`
func sum(arr) {
  n = len arr
  i = const 0
  acc = const 0
loop:
  done = ge i n
  if done goto finish
  v = arrget arr i
  acc = add acc v
  one = const 1
  i = add i one
  goto loop
finish:
  return acc
}
`)
	if err != nil {
		b.Fatal(err)
	}
	prog := u.Programs[0]
	env := NewEnv(nil, NewRegistry())
	arr := make(mir.IntArray, 1024)
	for i := range arr {
		arr[i] = int64(i)
	}
	args := []mir.Value{arr}

	b.Run("stepping", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := NewMachine(env, prog, args)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		code, err := Compile(prog, CompileOptions{Watch: []Edge{}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := code.NewMachine(env, args)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				b.Fatal(err)
			}
			m.Release()
		}
	})
}
