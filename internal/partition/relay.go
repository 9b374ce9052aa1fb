package partition

import (
	"fmt"
	"sync/atomic"

	"methodpart/internal/analysis"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/wire"
)

// splitResult is the outcome of running a machine segment under a plan's
// split flags: where it split, and the registers the continuation carries.
type splitResult struct {
	splitID int32
	forced  uint32
	regs    []int
	outcome interp.Outcome
}

// contSize prices the continuation a split at pseID would ship from
// machine's registers regs, header included, with a pooled sizer — the
// frame's encoded length, without building the continuation.
func contSize(c *Compiled, machine *interp.CodeMachine, pseID int32, forced uint32, seq uint64, work int64, regs []int) int64 {
	s := wire.GetSizer(c.Schema)
	n := machine.LiveSize(regs, s)
	wire.PutSizer(s)
	return wire.ContinuationFrameSize(pseID, forced, seq, work, len(regs), n)
}

// runSplit executes a machine until a flagged PSE (or a forced split before
// a StopNode), profiling flagged PSE crossings. baseWork is the work already
// spent on the message upstream, so crossing statistics stay
// message-cumulative across parties; seq prices each crossing's would-be
// continuation exactly. The hook only acts on PSE edges and edges into
// StopNodes, exactly the edges compiled code watches.
func runSplit(c *Compiled, machine *interp.CodeMachine, plan *Plan, probe SenderProbe, sampled bool, seq uint64, baseWork int64) (*splitResult, error) {
	res := &splitResult{splitID: ForcedSplit}
	machine.SetHook(func(e interp.Edge) bool {
		ae := analysis.Edge{From: e.From, To: e.To}
		id, isPSE := c.PSEByEdge(ae)
		if isPSE {
			pse := &c.PSEs[id]
			if sampled && plan.Profile(id) {
				work := baseWork + machine.Work()
				probe.Cross(id, work, contSize(c, machine, id, 0, seq, work, pse.regs))
			}
			if plan.Split(id) || (c.Analysis.Stops[e.To] && !c.Analysis.UG.IsExit(e.To)) {
				res.splitID = id
				res.regs = pse.regs
				return true
			}
			return false
		}
		if f, ok := c.forcedByEdge[ae]; ok {
			// Defensive split: never execute a StopNode before the
			// final receiver.
			res.splitID = ForcedSplit
			res.forced = f
			res.regs = c.forced[f].regs
			return true
		}
		return false
	})
	out, err := machine.Run()
	if err != nil {
		return nil, err
	}
	res.outcome = out
	return res, nil
}

// Relay is an intermediate party on a data stream that re-partitions
// in-flight messages: it resumes an incoming continuation (or raw event)
// under its own plan and emits a new continuation for the next hop. This is
// the §7 extension of propagating modulators upward along a stream — a
// handler can now run in three (or more) pieces: sender prefix, relay
// middle, receiver suffix. The relay never executes StopNodes; those always
// reach the final receiver.
type Relay struct {
	c   *Compiled
	env *interp.Env
	// Probe receives profiling events (message-cumulative work).
	Probe SenderProbe

	plan atomic.Pointer[Plan]
}

// NewRelay builds a relay for a compiled handler. Its initial plan is
// pass-through (raw flag), forwarding messages untouched.
func NewRelay(c *Compiled, env *interp.Env) *Relay {
	r := &Relay{c: c, env: env, Probe: NopProbe{}}
	initial, err := NewPlan(c.NumPSEs(), 0, []int32{RawPSEID}, nil)
	if err != nil {
		panic(err) // RawPSEID is always valid
	}
	r.plan.Store(initial)
	return r
}

// Plan returns the active plan.
func (r *Relay) Plan() *Plan { return r.plan.Load() }

// SetPlan atomically installs a new plan (stale versions are ignored).
func (r *Relay) SetPlan(p *Plan) bool {
	for {
		cur := r.plan.Load()
		if cur != nil && p.Version() != 0 && p.Version() <= cur.Version() {
			return false
		}
		if r.plan.CompareAndSwap(cur, p) {
			return true
		}
	}
}

// Process advances one in-flight message: raw events are modulated from the
// start; continuations resume at their split point and run until the
// relay's own plan (or a StopNode boundary) splits them again. The output
// is always a message for the next hop — relays never complete a handler.
func (r *Relay) Process(msg any) (*Output, error) {
	plan := r.plan.Load()
	var (
		machine  *interp.CodeMachine
		baseWork int64
		seq      uint64
		err      error
	)
	switch m := msg.(type) {
	case *wire.Raw:
		if plan.Raw() {
			// Pass-through: forward untouched.
			size := m.FrameSize()
			return &Output{Raw: m, SplitPSE: RawPSEID, WireBytes: size, RawBytes: size}, nil
		}
		var event mir.Value
		if event, err = m.DecodeEvent(r.c.Schema); err != nil {
			return nil, err
		}
		machine, err = r.c.Code.NewMachine(r.env, []mir.Value{event})
		if err != nil {
			return nil, err
		}
		seq = m.Seq
	case *wire.Continuation:
		resume, regs, ok := r.c.layout(m.PSEID, m.Forced)
		if !ok {
			return nil, fmt.Errorf("partition: relay for %s got continuation at unknown pse %d", r.c.Prog.Name, m.PSEID)
		}
		if plan.Raw() || r.c.Analysis.Stops[resume] {
			// Pass-through: nothing the relay may run. The copy shares
			// the encoded slots and reports where the next hop resumes.
			fwd := *m
			fwd.ResumeNode = int32(resume)
			return &Output{Cont: &fwd, SplitPSE: m.PSEID, WireBytes: m.FrameSize()}, nil
		}
		machine, err = restore(r.c, r.env, m, resume, regs)
		if err != nil {
			return nil, err
		}
		baseWork, seq = m.ModWork, m.Seq
	default:
		return nil, fmt.Errorf("partition: relay cannot process %T", msg)
	}
	defer machine.Release()

	res, err := runSplit(r.c, machine, plan, r.Probe, true, seq, baseWork)
	if err != nil {
		return nil, err
	}
	if res.outcome.Done {
		return nil, fmt.Errorf("partition: %s completed at relay; missing StopNodes", r.c.Prog.Name)
	}
	cont := r.c.continuation(machine, res, seq, baseWork+res.outcome.Work)
	size := cont.FrameSize()
	r.Probe.SplitAt(res.splitID, cont.ModWork, size)
	return &Output{Cont: cont, SplitPSE: res.splitID, ModWork: res.outcome.Work, WireBytes: size}, nil
}
