package interp

import (
	"errors"
	"fmt"

	"methodpart/internal/mir"
	"methodpart/internal/wire"
)

// Edge is a directed control-flow edge of the Unit Graph, identified by the
// instruction indices of its endpoints.
type Edge struct {
	// From is the index of the instruction just executed.
	From int
	// To is the index execution would transfer to.
	To int
}

// String renders the edge as in the paper, e.g. "Edge(4,10)".
func (e Edge) String() string { return fmt.Sprintf("Edge(%d,%d)", e.From, e.To) }

// EdgeHook observes every control-flow edge the machine is about to
// traverse. Returning true stops execution before the transfer: the machine
// has fully executed From, and a resumed run must start at To.
type EdgeHook func(e Edge) bool

// ErrStepLimit is returned when a run exceeds the environment step bound.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// ErrWorkBudget is returned when a run exceeds the environment work budget
// (Env.MaxWork): the segment is cancelled instead of wedging its caller.
var ErrWorkBudget = errors.New("interp: work budget exceeded")

// Outcome is the result of running a machine segment.
type Outcome struct {
	// Done reports whether the program ran to a return instruction.
	Done bool
	// Return is the returned value (Null if the return carried none);
	// only meaningful when Done.
	Return mir.Value
	// Split is the edge at which execution stopped; only meaningful when
	// !Done. Resumption must start at Split.To.
	Split Edge
	// Work is the total work units consumed by this segment.
	Work int64
	// Steps is the number of instructions executed in this segment.
	Steps int64
}

// Machine executes one program invocation. It is single-use per message but
// supports being snapshotted at a split edge and a fresh machine being
// restored on the other side.
type Machine struct {
	env  *Env
	prog *mir.Program
	regs map[string]mir.Value
	pc   int

	work  int64
	steps int64
	// Hook, if set, observes edges and can request a split.
	Hook EdgeHook
}

// NewMachine prepares a machine for the given program with arguments bound
// to the program parameters.
func NewMachine(env *Env, prog *mir.Program, args []mir.Value) (*Machine, error) {
	if len(args) != len(prog.Params) {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", prog.Name, len(prog.Params), len(args))
	}
	m := &Machine{
		env:  env,
		prog: prog,
		regs: make(map[string]mir.Value, len(prog.Params)+8),
	}
	for i, prm := range prog.Params {
		m.regs[prm] = args[i]
	}
	return m, nil
}

// Restore prepares a machine that resumes at instruction index node with the
// given register values — the demodulator side of a remote continuation.
func Restore(env *Env, prog *mir.Program, node int, regs map[string]mir.Value) (*Machine, error) {
	if node < 0 || node >= len(prog.Instrs) {
		return nil, fmt.Errorf("interp: resume node %d out of range for %s", node, prog.Name)
	}
	m := &Machine{
		env:  env,
		prog: prog,
		regs: make(map[string]mir.Value, len(regs)),
		pc:   node,
	}
	for k, v := range regs {
		m.regs[k] = v
	}
	return m, nil
}

// Reg returns the current value of a register.
func (m *Machine) Reg(name string) (mir.Value, bool) {
	v, ok := m.regs[name]
	return v, ok
}

// Snapshot copies the current values of the named registers — the live
// variables handed over at a split edge. Unset registers are omitted.
func (m *Machine) Snapshot(names []string) map[string]mir.Value {
	out := make(map[string]mir.Value, len(names))
	for _, n := range names {
		if v, ok := m.regs[n]; ok {
			out[n] = v
		}
	}
	return out
}

// LiveSize returns the encoded size the named registers would have as a
// continuation's variables — what wire.Sizer prices a Snapshot of them
// at — without building the snapshot. Unset registers are skipped.
func (m *Machine) LiveSize(names []string, s *wire.Sizer) int64 {
	var total int64
	for _, n := range names {
		if v, ok := m.regs[n]; ok {
			total += wire.NameSize(n) + s.Size(v)
		}
	}
	return total
}

// SetHook installs (or clears) the edge hook — the method form of writing
// the Hook field, shared with CodeMachine so callers can drive either
// engine through one interface.
func (m *Machine) SetHook(h EdgeHook) { m.Hook = h }

// Release is a no-op: stepping machines are not pooled. It exists so the
// stepping and compiled machines satisfy the same acquire/run/release
// contract.
func (m *Machine) Release() {}

// PC returns the index of the next instruction to execute.
func (m *Machine) PC() int { return m.pc }

// Work returns the work units consumed so far.
func (m *Machine) Work() int64 { return m.work }

// Run executes until the program returns, the hook requests a split, or the
// step bound is hit.
func (m *Machine) Run() (Outcome, error) {
	limit := m.env.maxSteps()
	budget := m.env.MaxWork
	for {
		if m.steps >= limit {
			return Outcome{Work: m.work, Steps: m.steps}, fmt.Errorf("%w (%d steps in %s)", ErrStepLimit, m.steps, m.prog.Name)
		}
		if budget > 0 && m.work >= budget {
			return Outcome{Work: m.work, Steps: m.steps}, fmt.Errorf("%w (%d work units in %s)", ErrWorkBudget, m.work, m.prog.Name)
		}
		in := &m.prog.Instrs[m.pc]
		next, ret, err := m.exec(in)
		m.steps++
		if err != nil {
			return Outcome{Work: m.work, Steps: m.steps}, fmt.Errorf("interp: %s instr %d (%s): %w", m.prog.Name, m.pc, in, err)
		}
		if next < 0 { // returned
			return Outcome{Done: true, Return: ret, Work: m.work, Steps: m.steps}, nil
		}
		edge := Edge{From: m.pc, To: next}
		if m.Hook != nil && m.Hook(edge) {
			m.pc = next
			return Outcome{Split: edge, Work: m.work, Steps: m.steps}, nil
		}
		m.pc = next
	}
}

// exec executes one instruction, returning the next pc (or -1 on return) and
// the return value when returning.
func (m *Machine) exec(in *mir.Instr) (int, mir.Value, error) {
	m.work++ // base cost of every instruction
	fall := m.pc + 1
	switch in.Op {
	case mir.OpConst:
		m.regs[in.Dst] = in.Lit
	case mir.OpMove:
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		m.regs[in.Dst] = v
	case mir.OpBin:
		a, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		b, err := m.get(in.Src2)
		if err != nil {
			return 0, nil, err
		}
		v, err := evalBin(in.Bin, a, b)
		if err != nil {
			return 0, nil, err
		}
		m.regs[in.Dst] = v
	case mir.OpUn:
		a, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		v, err := evalUn(in.Un, a)
		if err != nil {
			return 0, nil, err
		}
		m.regs[in.Dst] = v
	case mir.OpGoto:
		t, ok := m.prog.LabelIndex(in.Target)
		if !ok {
			return 0, nil, fmt.Errorf("undefined label %q", in.Target)
		}
		return t, nil, nil
	case mir.OpIf, mir.OpIfNot:
		c, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		truth, err := mir.Truthy(c)
		if err != nil {
			return 0, nil, err
		}
		if in.Op == mir.OpIfNot {
			truth = !truth
		}
		if truth {
			t, ok := m.prog.LabelIndex(in.Target)
			if !ok {
				return 0, nil, fmt.Errorf("undefined label %q", in.Target)
			}
			return t, nil, nil
		}
	case mir.OpCall:
		b, ok := m.env.Builtins.Lookup(in.Fn)
		if !ok {
			return 0, nil, fmt.Errorf("unknown builtin %q", in.Fn)
		}
		args := make([]mir.Value, len(in.Args))
		for i, r := range in.Args {
			v, err := m.get(r)
			if err != nil {
				return 0, nil, err
			}
			args[i] = v
		}
		if b.Cost != nil {
			m.work += b.Cost(args)
		}
		v, err := b.Fn(m.env, args)
		if err != nil {
			return 0, nil, fmt.Errorf("builtin %s: %w", in.Fn, err)
		}
		if in.Dst != "" {
			if v == nil {
				v = mir.Null{}
			}
			m.regs[in.Dst] = v
		}
	case mir.OpReturn:
		if in.Src == "" {
			return -1, mir.Null{}, nil
		}
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		return -1, v, nil
	case mir.OpNew:
		obj, err := m.env.Classes.New(in.Class)
		if err != nil {
			return 0, nil, err
		}
		m.regs[in.Dst] = obj
	case mir.OpGetField:
		obj, err := m.getObject(in.Src)
		if err != nil {
			return 0, nil, err
		}
		v, ok := obj.Fields[in.Field]
		if !ok {
			return 0, nil, fmt.Errorf("object %s has no field %q", obj.Class, in.Field)
		}
		m.regs[in.Dst] = v
	case mir.OpSetField:
		obj, err := m.getObject(in.Dst)
		if err != nil {
			return 0, nil, err
		}
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		obj.Fields[in.Field] = v
	case mir.OpNewArray:
		n, err := m.getInt(in.Src)
		if err != nil {
			return 0, nil, err
		}
		if n < 0 {
			return 0, nil, fmt.Errorf("negative array length %d", n)
		}
		switch in.ElemKind {
		case mir.KindInt:
			m.regs[in.Dst] = make(mir.IntArray, n)
		case mir.KindFloat:
			m.regs[in.Dst] = make(mir.FloatArray, n)
		case mir.KindBytes:
			m.regs[in.Dst] = make(mir.Bytes, n)
		default:
			return 0, nil, fmt.Errorf("bad newarray element kind %s", in.ElemKind)
		}
	case mir.OpArrGet:
		arr, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		idx, err := m.getInt(in.Src2)
		if err != nil {
			return 0, nil, err
		}
		v, err := arrGet(arr, idx)
		if err != nil {
			return 0, nil, err
		}
		m.regs[in.Dst] = v
	case mir.OpArrSet:
		arr, err := m.get(in.Dst)
		if err != nil {
			return 0, nil, err
		}
		idx, err := m.getInt(in.Src2)
		if err != nil {
			return 0, nil, err
		}
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		if err := arrSet(arr, idx, v); err != nil {
			return 0, nil, err
		}
	case mir.OpInstanceOf:
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		obj, ok := v.(*mir.Object)
		m.regs[in.Dst] = mir.Bool(ok && obj != nil && obj.Class == in.Class)
	case mir.OpCast:
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		obj, ok := v.(*mir.Object)
		if !ok || obj == nil || obj.Class != in.Class {
			return 0, nil, fmt.Errorf("cannot cast %s to %s", v.Kind(), in.Class)
		}
		m.regs[in.Dst] = v
	case mir.OpLen:
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		n, err := valueLen(v)
		if err != nil {
			return 0, nil, err
		}
		m.regs[in.Dst] = mir.Int(n)
	case mir.OpGetGlobal:
		v, ok := m.env.Globals[in.Field]
		if !ok {
			v = mir.Null{}
		}
		m.regs[in.Dst] = v
	case mir.OpSetGlobal:
		v, err := m.get(in.Src)
		if err != nil {
			return 0, nil, err
		}
		m.env.Globals[in.Field] = v
	default:
		return 0, nil, fmt.Errorf("unknown opcode %d", uint8(in.Op))
	}
	return fall, nil, nil
}

func (m *Machine) get(reg string) (mir.Value, error) {
	v, ok := m.regs[reg]
	if !ok {
		return nil, fmt.Errorf("read of unset register %q", reg)
	}
	return v, nil
}

func (m *Machine) getInt(reg string) (int64, error) {
	v, err := m.get(reg)
	if err != nil {
		return 0, err
	}
	i, ok := v.(mir.Int)
	if !ok {
		return 0, fmt.Errorf("register %q: want int, got %s", reg, v.Kind())
	}
	return int64(i), nil
}

func (m *Machine) getObject(reg string) (*mir.Object, error) {
	v, err := m.get(reg)
	if err != nil {
		return nil, err
	}
	obj, ok := v.(*mir.Object)
	if !ok || obj == nil {
		return nil, fmt.Errorf("register %q: want object, got %s", reg, v.Kind())
	}
	return obj, nil
}

func arrGet(arr mir.Value, idx int64) (mir.Value, error) {
	switch a := arr.(type) {
	case mir.IntArray:
		if idx < 0 || idx >= int64(len(a)) {
			return nil, fmt.Errorf("index %d out of range [0,%d)", idx, len(a))
		}
		return mir.Int(a[idx]), nil
	case mir.FloatArray:
		if idx < 0 || idx >= int64(len(a)) {
			return nil, fmt.Errorf("index %d out of range [0,%d)", idx, len(a))
		}
		return mir.Float(a[idx]), nil
	case mir.Bytes:
		if idx < 0 || idx >= int64(len(a)) {
			return nil, fmt.Errorf("index %d out of range [0,%d)", idx, len(a))
		}
		return mir.Int(a[idx]), nil
	default:
		return nil, fmt.Errorf("arrget on %s", arr.Kind())
	}
}

func arrSet(arr mir.Value, idx int64, v mir.Value) error {
	switch a := arr.(type) {
	case mir.IntArray:
		iv, ok := v.(mir.Int)
		if !ok {
			return fmt.Errorf("intarray element must be int, got %s", v.Kind())
		}
		if idx < 0 || idx >= int64(len(a)) {
			return fmt.Errorf("index %d out of range [0,%d)", idx, len(a))
		}
		a[idx] = int64(iv)
	case mir.FloatArray:
		fv, ok := v.(mir.Float)
		if !ok {
			return fmt.Errorf("floatarray element must be float, got %s", v.Kind())
		}
		if idx < 0 || idx >= int64(len(a)) {
			return fmt.Errorf("index %d out of range [0,%d)", idx, len(a))
		}
		a[idx] = float64(fv)
	case mir.Bytes:
		iv, ok := v.(mir.Int)
		if !ok {
			return fmt.Errorf("bytes element must be int, got %s", v.Kind())
		}
		if idx < 0 || idx >= int64(len(a)) {
			return fmt.Errorf("index %d out of range [0,%d)", idx, len(a))
		}
		a[idx] = byte(iv)
	default:
		return fmt.Errorf("arrset on %s", arr.Kind())
	}
	return nil
}

func valueLen(v mir.Value) (int, error) {
	switch a := v.(type) {
	case mir.IntArray:
		return len(a), nil
	case mir.FloatArray:
		return len(a), nil
	case mir.Bytes:
		return len(a), nil
	case mir.Str:
		return len(a), nil
	default:
		return 0, fmt.Errorf("len of %s", v.Kind())
	}
}
