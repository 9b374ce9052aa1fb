package partition

import (
	"sync"
	"sync/atomic"

	"methodpart/internal/analysis"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/wire"
)

// ReceiverProbe receives the demodulator-side profiling events: the work
// the receiver spent finishing each message, keyed by the PSE the sender
// split at.
type ReceiverProbe interface {
	// Done is called after each completed message.
	Done(splitPSE int32, modWork, demodWork int64)
}

// NopReceiverProbe records nothing.
type NopReceiverProbe struct{}

// Done implements ReceiverProbe.
func (NopReceiverProbe) Done(int32, int64, int64) {}

// Demodulator is the receiver-side half of a partitioned handler: it
// restores remote continuations and completes their processing (§2.4).
// Like the modulator, it carries profiling instrumentation along each PSE
// (§2.3 inserts profiling code on both sides): PSEs downstream of the
// current split are crossed here, and their would-be continuation sizes and
// cumulative work are observed at the receiver.
type Demodulator struct {
	c   *Compiled
	env *interp.Env
	// Probe receives per-message completion events; defaults to
	// NopReceiverProbe.
	Probe ReceiverProbe
	// CrossProbe receives per-PSE crossing events for PSEs whose
	// profiling flag is set in the profile plan (same semantics as the
	// modulator side). Defaults to NopProbe.
	CrossProbe SenderProbe

	profilePlan  atomic.Pointer[Plan]
	compiledRuns atomic.Int64
}

// CompiledRuns returns how many messages ran on the compiled engine.
func (d *Demodulator) CompiledRuns() int64 { return d.compiledRuns.Load() }

// NewDemodulator builds a demodulator executing in the receiver-side
// environment (which must register the handler's native builtins).
func NewDemodulator(c *Compiled, env *interp.Env) *Demodulator {
	return &Demodulator{c: c, env: env, Probe: NopReceiverProbe{}, CrossProbe: NopProbe{}}
}

// SetProfilePlan installs the plan whose profiling flags gate the
// receiver-side PSE instrumentation. The reconfiguration unit typically
// lives with the receiver, so this needs no wire hop.
func (d *Demodulator) SetProfilePlan(p *Plan) { d.profilePlan.Store(p) }

// ProfilePlan returns the installed profile plan, or nil before the first
// SetProfilePlan — for status snapshots; the demodulator itself only reads
// it when a message starts.
func (d *Demodulator) ProfilePlan() *Plan { return d.profilePlan.Load() }

// crossProfiler is the receiver-side profiling hook for one message:
// PSE crossings whose profiling flag is set are priced from the machine's
// live registers and reported to CrossProbe. Profilers are pooled together
// with their bound hook, so profiling a message allocates nothing.
type crossProfiler struct {
	d       *Demodulator
	plan    *Plan
	machine execMachine
	// baseWork is the sender-side work already spent on the message, so
	// crossing stats are message-cumulative.
	baseWork int64
	hook     interp.EdgeHook
}

var profilerPool = sync.Pool{New: func() any {
	p := &crossProfiler{}
	p.hook = p.cross
	return p
}}

func (p *crossProfiler) cross(e interp.Edge) bool {
	c := p.d.c
	if id, ok := c.PSEByEdge(analysis.Edge{From: e.From, To: e.To}); ok && p.plan.Profile(id) {
		pse, _ := c.PSE(id)
		p.d.CrossProbe.Cross(id, p.baseWork+p.machine.Work(), liveSize(p.machine, pse.Vars))
	}
	return false
}

func (p *crossProfiler) release() {
	*p = crossProfiler{hook: p.hook}
	profilerPool.Put(p)
}

// profile installs the profiling hook on machine and returns the profiler
// to release after the run, or nil when no profiling is active.
func (d *Demodulator) profile(machine execMachine, baseWork int64) *crossProfiler {
	plan := d.profilePlan.Load()
	if plan == nil || len(plan.ProfileIDs()) == 0 {
		return nil
	}
	p := profilerPool.Get().(*crossProfiler)
	p.d, p.plan, p.machine, p.baseWork = d, plan, machine, baseWork
	machine.SetHook(p.hook)
	return p
}

// Result is the outcome of demodulating one message.
type Result struct {
	// Return is the handler's return value.
	Return mir.Value
	// DemodWork is the receiver-side work spent (work units).
	DemodWork int64
	// SplitPSE is the PSE the message was split at (RawPSEID for raw).
	SplitPSE int32
}

// ProcessRaw runs the complete handler on an unmodulated event. Interpreter
// panics are recovered into classified Fault errors; see FaultClassOf.
func (d *Demodulator) ProcessRaw(msg *wire.Raw) (res *Result, err error) {
	defer recoverFault(&err)
	if msg.Handler != d.c.Prog.Name {
		return nil, faultf(wire.NackDecode, "partition: raw message for %q handled by %q", msg.Handler, d.c.Prog.Name)
	}
	machine, err := d.c.newMachine(d.env, []mir.Value{msg.Event})
	if err != nil {
		return nil, classify(wire.NackRestore, err)
	}
	defer machine.Release()
	if d.c.Engine == EngineCompiled {
		d.compiledRuns.Add(1)
	}
	if p := d.profile(machine, 0); p != nil {
		defer p.release()
	}
	out, err := machine.Run()
	if err != nil {
		return nil, classify(wire.NackRuntime, err)
	}
	if !out.Done {
		return nil, faultf(wire.NackRuntime, "partition: raw run of %s stopped unexpectedly", msg.Handler)
	}
	d.Probe.Done(RawPSEID, 0, out.Work)
	return &Result{Return: out.Return, DemodWork: out.Work, SplitPSE: RawPSEID}, nil
}

// ProcessContinuation restores a remote continuation — re-binding the live
// variables and jumping to the resume node — and runs it to completion.
// Interpreter panics are recovered into classified Fault errors.
func (d *Demodulator) ProcessContinuation(cont *wire.Continuation) (res *Result, err error) {
	defer recoverFault(&err)
	if cont.Handler != d.c.Prog.Name {
		return nil, faultf(wire.NackDecode, "partition: continuation for %q handled by %q", cont.Handler, d.c.Prog.Name)
	}
	resume := int(cont.ResumeNode)
	if resume < 0 || resume >= len(d.c.Prog.Instrs) {
		return nil, faultf(wire.NackRestore, "partition: continuation resume node %d out of range", resume)
	}
	machine, err := d.c.restoreMachine(d.env, resume, cont.Vars)
	if err != nil {
		return nil, classify(wire.NackRestore, err)
	}
	defer machine.Release()
	if d.c.Engine == EngineCompiled {
		d.compiledRuns.Add(1)
	}
	if p := d.profile(machine, cont.ModWork); p != nil {
		defer p.release()
	}
	out, err := machine.Run()
	if err != nil {
		return nil, classify(wire.NackRuntime, err)
	}
	if !out.Done {
		return nil, faultf(wire.NackRuntime, "partition: continuation of %s stopped unexpectedly", cont.Handler)
	}
	d.Probe.Done(cont.PSEID, cont.ModWork, out.Work)
	return &Result{Return: out.Return, DemodWork: out.Work, SplitPSE: cont.PSEID}, nil
}

// Process dispatches a decoded wire message to the appropriate half.
func (d *Demodulator) Process(msg any) (*Result, error) {
	switch m := msg.(type) {
	case *wire.Raw:
		return d.ProcessRaw(m)
	case *wire.Continuation:
		return d.ProcessContinuation(m)
	default:
		return nil, faultf(wire.NackDecode, "partition: demodulator cannot process %T", msg)
	}
}
