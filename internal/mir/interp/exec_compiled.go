package interp

import (
	"fmt"

	"methodpart/internal/mir"
	"methodpart/internal/wire"
)

// skind tags the representation of a value held in a slot register.
type skind uint8

const (
	// skUnset marks a register that has never been written — reads fail
	// exactly like a missing key in the stepping machine's register map.
	skUnset skind = iota
	// skInt holds an mir.Int unboxed in slot.i.
	skInt
	// skFloat holds an mir.Float unboxed in slot.f.
	skFloat
	// skBool holds an mir.Bool unboxed in slot.i (0 or 1).
	skBool
	// skBoxed holds any other value kind as an interface in slot.v.
	skBoxed
)

// slot is one dense register of a compiled machine. Ints, floats and bools
// live unboxed so arithmetic in hot loops never converts through the Value
// interface (each such conversion of an int64 outside the runtime's small
// value cache allocates). Invariant: a slot never holds an mir.Int,
// mir.Float or mir.Bool in boxed form — set is the only writer of decoded
// values and always unboxes them — so a kind test fully classifies a slot.
type slot struct {
	kind skind
	i    int64
	f    float64
	v    mir.Value
}

// set stores v, unboxing the scalar kinds. A nil value leaves the slot
// unset.
func (s *slot) set(v mir.Value) {
	switch x := v.(type) {
	case mir.Int:
		*s = slot{kind: skInt, i: int64(x)}
	case mir.Float:
		*s = slot{kind: skFloat, f: float64(x)}
	case mir.Bool:
		var i int64
		if x {
			i = 1
		}
		*s = slot{kind: skBool, i: i}
	case nil:
		*s = slot{}
	default:
		*s = slot{kind: skBoxed, v: v}
	}
}

// setSlot stores a continuation slot. A decoded slot never holds a boxed
// scalar in SlotValue, but set re-unboxes one should a caller pass it.
func (s *slot) setSlot(w wire.Slot) {
	switch w.Kind {
	case wire.SlotInt:
		*s = slot{kind: skInt, i: w.I}
	case wire.SlotFloat:
		*s = slot{kind: skFloat, f: w.F}
	case wire.SlotBool:
		*s = slot{kind: skBool, i: w.I & 1}
	case wire.SlotValue:
		s.set(w.V)
	default:
		*s = slot{}
	}
}

// wireSlot returns the register as a continuation slot, unboxed.
func (s *slot) wireSlot() wire.Slot {
	switch s.kind {
	case skInt:
		return wire.Slot{Kind: wire.SlotInt, I: s.i}
	case skFloat:
		return wire.Slot{Kind: wire.SlotFloat, F: s.f}
	case skBool:
		return wire.Slot{Kind: wire.SlotBool, I: s.i}
	case skBoxed:
		return wire.Slot{Kind: wire.SlotValue, V: s.v}
	default:
		return wire.Slot{}
	}
}

// box returns the slot's value as an mir.Value (nil when unset). Boxing an
// int64 outside [0,255] allocates; hot paths avoid calling it.
func (s *slot) box() mir.Value {
	switch s.kind {
	case skInt:
		return mir.Int(s.i)
	case skFloat:
		return mir.Float(s.f)
	case skBool:
		return mir.Bool(s.i != 0)
	case skBoxed:
		return s.v
	default:
		return nil
	}
}

// kindOf reports the mir.Kind of the held value for diagnostics.
func (s *slot) kindOf() mir.Kind {
	switch s.kind {
	case skInt:
		return mir.KindInt
	case skFloat:
		return mir.KindFloat
	case skBool:
		return mir.KindBool
	case skBoxed:
		return s.v.Kind()
	default:
		return 0
	}
}

func (s *slot) isNum() bool { return s.kind == skInt || s.kind == skFloat }

// f64 returns the numeric value as float64; only valid when isNum.
func (s *slot) f64() float64 {
	if s.kind == skInt {
		return float64(s.i)
	}
	return s.f
}

func boolSlot(b bool) slot {
	if b {
		return slot{kind: skBool, i: 1}
	}
	return slot{kind: skBool}
}

// CodeMachine executes one invocation of a compiled program. Like the
// stepping Machine it is single-use per message, snapshots at split edges
// and restores from register snapshots; unlike it, machines are pooled —
// call Release when done so the steady state allocates nothing.
type CodeMachine struct {
	code *Code
	env  *Env
	// Hook, if set, observes watched edges and can request a split.
	Hook EdgeHook

	regs   []slot
	argBuf []mir.Value
	ret    mir.Value
	pc     int
	work   int64
	steps  int64
	limit  int64
	budget int64

	// faultPC is the instruction index errors are attributed to; every
	// lowered closure stamps it so fused superinstructions report the
	// half that actually faulted.
	faultPC int
	// noWrap marks an error already in its final form (step/work budget
	// errors raised mid-superinstruction), which Run must not wrap in the
	// per-instruction context.
	noWrap bool
}

// NewMachine prepares a pooled machine for one invocation with arguments
// bound to the program parameters.
func (c *Code) NewMachine(env *Env, args []mir.Value) (*CodeMachine, error) {
	if len(args) != len(c.prog.Params) {
		return nil, fmt.Errorf("interp: %s expects %d args, got %d", c.prog.Name, len(c.prog.Params), len(args))
	}
	m := c.get()
	m.env = env
	for i, a := range args {
		m.regs[c.params[i]].set(a)
	}
	return m, nil
}

// Regs returns the register index of each named register, in order, for
// Restore, AppendSlots and LiveSize; a name the program never mentions
// maps to -1.
func (c *Code) Regs(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = -1
		if idx, ok := c.slotOf[n]; ok {
			out[i] = idx
		}
	}
	return out
}

// Restore prepares a pooled machine that resumes at instruction index node
// with register regs[i] set to vals[i] — the demodulator side of a remote
// continuation, whose slots arrive in its PSE's variable order. A negative
// index (a name the program never mentions) drops its value, and an absent
// slot leaves its register unset.
func (c *Code) Restore(env *Env, node int, regs []int, vals []wire.Slot) (*CodeMachine, error) {
	if node < 0 || node >= len(c.prog.Instrs) {
		return nil, fmt.Errorf("interp: resume node %d out of range for %s", node, c.prog.Name)
	}
	if len(regs) != len(vals) {
		return nil, fmt.Errorf("interp: restore of %s got %d values for %d registers", c.prog.Name, len(vals), len(regs))
	}
	m := c.get()
	m.env = env
	m.pc = node
	for i, idx := range regs {
		if idx >= 0 && idx < len(m.regs) {
			m.regs[idx].setSlot(vals[i])
		}
	}
	return m, nil
}

func (c *Code) get() *CodeMachine {
	return c.pool.Get().(*CodeMachine)
}

// Release clears the machine and returns it to its program's pool. The
// machine must not be used afterwards.
func (m *CodeMachine) Release() {
	for i := range m.regs {
		m.regs[i] = slot{}
	}
	for i := range m.argBuf {
		m.argBuf[i] = nil
	}
	m.argBuf = m.argBuf[:0]
	m.env = nil
	m.Hook = nil
	m.ret = nil
	m.pc, m.work, m.steps = 0, 0, 0
	m.limit, m.budget = 0, 0
	m.faultPC = 0
	m.noWrap = false
	m.code.pool.Put(m)
}

// SetHook installs (or clears) the edge hook. In compiled execution the
// hook observes only the watched edges given to Compile.
func (m *CodeMachine) SetHook(h EdgeHook) { m.Hook = h }

// PC returns the index of the next instruction to execute.
func (m *CodeMachine) PC() int { return m.pc }

// Work returns the work units consumed so far.
func (m *CodeMachine) Work() int64 { return m.work }

// Steps returns the instructions executed so far.
func (m *CodeMachine) Steps() int64 { return m.steps }

// Reg returns the current value of a register.
func (m *CodeMachine) Reg(name string) (mir.Value, bool) {
	idx, ok := m.code.slotOf[name]
	if !ok || m.regs[idx].kind == skUnset {
		return nil, false
	}
	return m.regs[idx].box(), true
}

// IsSet reports whether register idx (see Code.Regs) holds a value.
func (m *CodeMachine) IsSet(idx int) bool { return m.regs[idx].kind != skUnset }

// AppendSlots appends the values of registers regs to dst, in order and
// unboxed — the live variables handed over at a split edge. An unset
// register (or a negative index) appends an absent slot.
func (m *CodeMachine) AppendSlots(dst []wire.Slot, regs []int) []wire.Slot {
	for _, idx := range regs {
		if idx < 0 {
			dst = append(dst, wire.Slot{})
			continue
		}
		dst = append(dst, m.regs[idx].wireSlot())
	}
	return dst
}

// LiveSize returns the encoded size registers regs would have as a
// continuation's slots under the sizer's schema — what the encoder writes
// for AppendSlots of them — without copying them out. Unboxed scalars are
// priced without boxing them.
func (m *CodeMachine) LiveSize(regs []int, s *wire.Sizer) int64 {
	var total int64
	for _, idx := range regs {
		var sl wire.Slot
		if idx >= 0 {
			sl = m.regs[idx].wireSlot()
		}
		total += s.Slot(sl)
	}
	return total
}

// Run executes until the program returns, the hook requests a split at a
// watched edge, or a resource bound is hit. Outcomes, work and step counts,
// and error text match the stepping Machine instruction for instruction.
func (m *CodeMachine) Run() (Outcome, error) {
	m.limit = m.env.maxSteps()
	m.budget = m.env.MaxWork
	ops := m.code.ops
	pc := m.pc
	for {
		if m.steps >= m.limit {
			return Outcome{Work: m.work, Steps: m.steps}, m.stepLimitErr()
		}
		if m.budget > 0 && m.work >= m.budget {
			return Outcome{Work: m.work, Steps: m.steps}, m.workBudgetErr()
		}
		m.pc = pc
		op := &ops[pc]
		next, err := op.fn(m)
		if err != nil {
			out := Outcome{Work: m.work, Steps: m.steps}
			if m.noWrap {
				m.noWrap = false
				return out, err
			}
			in := &m.code.prog.Instrs[m.faultPC]
			return out, fmt.Errorf("interp: %s instr %d (%s): %w", m.code.prog.Name, m.faultPC, in, err)
		}
		if next < 0 { // returned
			return Outcome{Done: true, Return: m.ret, Work: m.work, Steps: m.steps}, nil
		}
		if m.Hook != nil && (next == op.w1 || next == op.w2) {
			edge := Edge{From: op.from, To: next}
			if m.Hook(edge) {
				m.pc = next
				return Outcome{Split: edge, Work: m.work, Steps: m.steps}, nil
			}
		}
		pc = next
	}
}

func (m *CodeMachine) stepLimitErr() error {
	return fmt.Errorf("%w (%d steps in %s)", ErrStepLimit, m.steps, m.code.prog.Name)
}

func (m *CodeMachine) workBudgetErr() error {
	return fmt.Errorf("%w (%d work units in %s)", ErrWorkBudget, m.work, m.code.prog.Name)
}

func (m *CodeMachine) unsetErr(idx int) error {
	return fmt.Errorf("read of unset register %q", m.code.slotNames[idx])
}

// intAt reads slot idx as an int, with the stepping machine's error text.
func (m *CodeMachine) intAt(idx int) (int64, error) {
	s := &m.regs[idx]
	if s.kind == skUnset {
		return 0, m.unsetErr(idx)
	}
	if s.kind != skInt {
		return 0, fmt.Errorf("register %q: want int, got %s", m.code.slotNames[idx], s.kindOf())
	}
	return s.i, nil
}

// objAt reads slot idx as a non-nil object.
func (m *CodeMachine) objAt(idx int) (*mir.Object, error) {
	s := &m.regs[idx]
	if s.kind == skUnset {
		return nil, m.unsetErr(idx)
	}
	if s.kind == skBoxed {
		if obj, ok := s.v.(*mir.Object); ok && obj != nil {
			return obj, nil
		}
	}
	return nil, fmt.Errorf("register %q: want object, got %s", m.code.slotNames[idx], s.kindOf())
}

// binSlow is the out-of-line tail of the arithmetic and ordering fast
// paths: numeric promotion without boxing, everything else (strings,
// division by zero, type errors) through evalBin on boxed values so error
// text is byte-identical to the stepping engine. Both-int operand pairs
// never reach it for the operators that use it — their closures handle
// that case inline — so promoting to float here cannot change int results.
func (m *CodeMachine) binSlow(fall int, bin mir.BinKind, dst, a, b int) (int, error) {
	pa, pb := &m.regs[a], &m.regs[b]
	if pa.kind == skUnset {
		return 0, m.unsetErr(a)
	}
	if pb.kind == skUnset {
		return 0, m.unsetErr(b)
	}
	if pa.isNum() && pb.isNum() {
		af, bf := pa.f64(), pb.f64()
		switch bin {
		case mir.BinAdd:
			m.regs[dst] = slot{kind: skFloat, f: af + bf}
			return fall, nil
		case mir.BinSub:
			m.regs[dst] = slot{kind: skFloat, f: af - bf}
			return fall, nil
		case mir.BinMul:
			m.regs[dst] = slot{kind: skFloat, f: af * bf}
			return fall, nil
		case mir.BinDiv:
			if bf != 0 {
				m.regs[dst] = slot{kind: skFloat, f: af / bf}
				return fall, nil
			}
			// fall through to evalBin for the exact division-by-zero error
		case mir.BinLt:
			m.regs[dst] = boolSlot(af < bf)
			return fall, nil
		case mir.BinLe:
			m.regs[dst] = boolSlot(af <= bf)
			return fall, nil
		case mir.BinGt:
			m.regs[dst] = boolSlot(af > bf)
			return fall, nil
		case mir.BinGe:
			m.regs[dst] = boolSlot(af >= bf)
			return fall, nil
		}
	}
	v, err := evalBin(bin, pa.box(), pb.box())
	if err != nil {
		return 0, err
	}
	m.regs[dst].set(v)
	return fall, nil
}

// binBoxed evaluates a binary operator entirely through evalBin — the
// fallback for equality, boolean and modulo closures.
func (m *CodeMachine) binBoxed(fall int, bin mir.BinKind, dst, a, b int) (int, error) {
	pa, pb := &m.regs[a], &m.regs[b]
	if pa.kind == skUnset {
		return 0, m.unsetErr(a)
	}
	if pb.kind == skUnset {
		return 0, m.unsetErr(b)
	}
	v, err := evalBin(bin, pa.box(), pb.box())
	if err != nil {
		return 0, err
	}
	m.regs[dst].set(v)
	return fall, nil
}

// unSlow evaluates a unary operator through evalUn.
func (m *CodeMachine) unSlow(fall int, un mir.UnKind, dst, src int) (int, error) {
	s := &m.regs[src]
	if s.kind == skUnset {
		return 0, m.unsetErr(src)
	}
	v, err := evalUn(un, s.box())
	if err != nil {
		return 0, err
	}
	m.regs[dst].set(v)
	return fall, nil
}
