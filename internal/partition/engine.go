package partition

import (
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/wire"
)

// Engine selects the execution engine a compiled handler's endpoints run
// on. The zero value is the closure-compiled engine.
type Engine uint8

const (
	// EngineCompiled runs events on the closure-compiled machine with
	// dense slot registers (interp.Code). The partition hooks still
	// observe every edge they act on: compilation watches the PSE edges
	// and the edges into non-exit StopNodes.
	EngineCompiled Engine = iota
	// EngineStepping runs events on the per-instruction stepping machine
	// — the engine of record the compiled engine is differentially tested
	// against, and a fallback knob should a miscompilation slip through.
	EngineStepping
)

// String names the engine for diagnostics.
func (e Engine) String() string {
	switch e {
	case EngineCompiled:
		return "compiled"
	case EngineStepping:
		return "stepping"
	default:
		return "unknown"
	}
}

// execMachine is the run contract shared by the stepping and compiled
// machines: the modulator, demodulator and relay drive either engine
// through it.
type execMachine interface {
	SetHook(interp.EdgeHook)
	Run() (interp.Outcome, error)
	Snapshot(names []string) map[string]mir.Value
	// LiveSize prices the named registers as Snapshot + wire.Sizer
	// would, without building the snapshot.
	LiveSize(names []string, s *wire.Sizer) int64
	Work() int64
	Release()
}

// liveSize prices the named live registers of machine with a pooled sizer:
// the size a continuation split here would carry, without the snapshot.
func liveSize(machine execMachine, names []string) int64 {
	s := wire.GetSizer()
	n := machine.LiveSize(names, s)
	wire.PutSizer(s)
	return n
}

// newMachine prepares a machine for one invocation on the active engine.
func (c *Compiled) newMachine(env *interp.Env, args []mir.Value) (execMachine, error) {
	if c.Engine == EngineStepping {
		return interp.NewMachine(env, c.Prog, args)
	}
	return c.Code.NewMachine(env, args)
}

// restoreMachine prepares a machine resuming at node on the active engine.
func (c *Compiled) restoreMachine(env *interp.Env, node int, vars map[string]mir.Value) (execMachine, error) {
	if c.Engine == EngineStepping {
		return interp.Restore(env, c.Prog, node, vars)
	}
	return c.Code.Restore(env, node, vars)
}
