package interp

import (
	"errors"
	"testing"

	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/wire"
)

func TestWorkBudget(t *testing.T) {
	u := asm.MustParse(`
func spin(x) {
loop:
  goto loop
}
`)
	env := envFor(t, u)
	env.MaxWork = 100
	prog, _ := u.Program("spin")
	m, _ := NewMachine(env, prog, []mir.Value{mir.Int(0)})
	_, err := m.Run()
	if !errors.Is(err, ErrWorkBudget) {
		t.Fatalf("err = %v, want ErrWorkBudget", err)
	}
}

func TestWorkBudgetZeroIsUnbounded(t *testing.T) {
	u := asm.MustParse(`
func f(a, b) {
  q = add a b
  return q
}
`)
	env := envFor(t, u)
	prog, _ := u.Program("f")
	m, _ := NewMachine(env, prog, []mir.Value{mir.Int(1), mir.Int(2)})
	out, err := m.Run()
	if err != nil || !out.Done {
		t.Fatalf("out = %+v, err = %v", out, err)
	}
}

// fuzzRestoreSrc exercises every register-touching instruction class the
// restore path can resume into: type tests, casts, allocation, moves.
const fuzzRestoreSrc = `
class ImageData {
  width int
  height int
  buff bytes
}

func push(event) {
  z0 = instanceof event ImageData
  ifnot z0 goto done
  r2 = cast event ImageData
  r3 = new ImageData
  r4 = move r3
done:
  return
}
`

// FuzzRestore: restoring a compiled machine at an arbitrary node from
// arbitrary slot bytes — the receiving end of a hostile or corrupted
// continuation — must yield an error or a normal outcome, never a panic.
// The slots are decoded from the fuzzed bytes with the wire's positional
// slot decoder under the program's schema, the way a demodulator fills the
// registers of a PSE's variable list; one slot targets a name the program
// never mentions.
func FuzzRestore(f *testing.F) {
	u := asm.MustParse(fuzzRestoreSrc)
	prog, ok := u.Program("push")
	if !ok {
		f.Fatal("no push program")
	}
	tbl, err := u.ClassTable()
	if err != nil {
		f.Fatal(err)
	}
	code, err := Compile(prog, CompileOptions{})
	if err != nil {
		f.Fatal(err)
	}
	schema := wire.NewSchema(tbl)
	regs := code.Regs([]string{"event", "z0", "r2", "r3", "r4", "ghost"})

	img, err := tbl.New("ImageData")
	if err != nil {
		f.Fatal(err)
	}
	e := wire.NewEncoder(schema)
	for _, v := range []mir.Value{img, mir.Bool(true), img, nil, mir.Int(300), mir.Str("x")} {
		if err := e.EncodeSlot(wire.ValueSlot(v)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(0, append([]byte(nil), e.Bytes()...))
	f.Add(3, []byte{12, 3, 84, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(1<<20, []byte("garbage"))
	f.Add(-1, []byte{0xff, 0xff})
	f.Fuzz(func(t *testing.T, node int, raw []byte) {
		env := NewEnv(tbl, NewRegistry())
		env.MaxSteps = 10_000
		env.MaxWork = 10_000
		dec := wire.NewDecoder(raw, schema)
		vals := make([]wire.Slot, len(regs))
		for i := range vals {
			sl, err := dec.DecodeSlot()
			if err != nil {
				break
			}
			vals[i] = sl
		}
		m, err := code.Restore(env, node, regs, vals)
		if err != nil {
			return
		}
		_, _ = m.Run()
		m.Release()
	})
}
