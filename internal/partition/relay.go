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
// split flags.
type splitResult struct {
	splitID   int32
	splitVars []string
	outcome   interp.Outcome
}

// runSplit executes a machine until a flagged PSE (or a forced split before
// a StopNode), profiling flagged PSE crossings. baseWork is the work already
// spent on the message upstream, so crossing statistics stay
// message-cumulative across parties. It drives either engine: the hook only
// acts on PSE edges and edges into StopNodes, exactly the edges compiled
// code watches.
func runSplit(c *Compiled, machine execMachine, plan *Plan, probe SenderProbe, sampled bool, baseWork int64) (*splitResult, error) {
	res := &splitResult{splitID: ForcedSplit}
	machine.SetHook(func(e interp.Edge) bool {
		ae := analysis.Edge{From: e.From, To: e.To}
		id, isPSE := c.PSEByEdge(ae)
		if isPSE {
			pse, _ := c.PSE(id)
			if sampled && plan.Profile(id) {
				probe.Cross(id, baseWork+machine.Work(), liveSize(machine, pse.Vars))
			}
			if plan.Split(id) {
				res.splitID = id
				res.splitVars = pse.Vars
				return true
			}
		}
		if c.Analysis.Stops[e.To] && !c.Analysis.UG.IsExit(e.To) {
			// Defensive split: never execute a StopNode before the
			// final receiver.
			if isPSE {
				pse, _ := c.PSE(id)
				res.splitID = id
				res.splitVars = pse.Vars
			} else {
				res.splitID = ForcedSplit
				res.splitVars = c.InterAt(ae)
			}
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

	plan         atomic.Pointer[Plan]
	compiledRuns atomic.Int64
}

// CompiledRuns returns how many messages ran on the compiled engine.
func (r *Relay) CompiledRuns() int64 { return r.compiledRuns.Load() }

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
		machine  execMachine
		baseWork int64
		seq      uint64
		handler  string
		err      error
	)
	switch m := msg.(type) {
	case *wire.Raw:
		if m.Handler != r.c.Prog.Name {
			return nil, fmt.Errorf("partition: relay for %q got raw for %q", r.c.Prog.Name, m.Handler)
		}
		if plan.Raw() {
			// Pass-through: forward untouched.
			return &Output{Raw: m, SplitPSE: RawPSEID, WireBytes: wire.SizeOf(m.Event)}, nil
		}
		machine, err = r.c.newMachine(r.env, []mir.Value{m.Event})
		if err != nil {
			return nil, err
		}
		seq, handler = m.Seq, m.Handler
	case *wire.Continuation:
		if m.Handler != r.c.Prog.Name {
			return nil, fmt.Errorf("partition: relay for %q got continuation for %q", r.c.Prog.Name, m.Handler)
		}
		resume := int(m.ResumeNode)
		if resume < 0 || resume >= len(r.c.Prog.Instrs) {
			return nil, fmt.Errorf("partition: relay resume node %d out of range", resume)
		}
		if plan.Raw() || r.c.Analysis.Stops[resume] {
			// Pass-through: nothing the relay may run.
			return &Output{Cont: m, SplitPSE: m.PSEID, ModWork: 0, WireBytes: continuationSize(m)}, nil
		}
		machine, err = r.c.restoreMachine(r.env, resume, m.Vars)
		if err != nil {
			return nil, err
		}
		baseWork, seq, handler = m.ModWork, m.Seq, m.Handler
	default:
		return nil, fmt.Errorf("partition: relay cannot process %T", msg)
	}
	defer machine.Release()
	if r.c.Engine == EngineCompiled {
		r.compiledRuns.Add(1)
	}

	res, err := runSplit(r.c, machine, plan, r.Probe, true, baseWork)
	if err != nil {
		return nil, err
	}
	if res.outcome.Done {
		return nil, fmt.Errorf("partition: %s completed at relay; missing StopNodes", handler)
	}
	snap := machine.Snapshot(res.splitVars)
	cont := &wire.Continuation{
		Handler:    handler,
		Seq:        seq,
		PSEID:      res.splitID,
		ResumeNode: int32(res.outcome.Split.To),
		Vars:       snap,
		ModWork:    baseWork + res.outcome.Work,
	}
	size := snapshotSize(res.splitVars, snap)
	r.Probe.SplitAt(res.splitID, cont.ModWork, size)
	return &Output{Cont: cont, SplitPSE: res.splitID, ModWork: res.outcome.Work, WireBytes: size}, nil
}

// continuationSize estimates the wire size of an existing continuation's
// variable payload.
func continuationSize(c *wire.Continuation) int64 {
	order := make([]string, 0, len(c.Vars))
	for n := range c.Vars {
		order = append(order, n)
	}
	return snapshotSize(order, c.Vars)
}
