package partition

import (
	"errors"
	"fmt"
	"sync/atomic"

	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/wire"
)

// ForcedSplit is the sentinel PSE id reported when the modulator had to
// split at a non-PSE edge to avoid executing a StopNode at the sender
// (defensive behaviour under stale or degenerate plans).
const ForcedSplit int32 = -1

// SenderProbe receives the modulator-side profiling events (§2.5). The
// profiling code is invoked only for PSEs whose profiling flag is set, so a
// disabled probe costs one flag test per crossed PSE.
type SenderProbe interface {
	// Message is called once per processed event with the raw event size.
	Message(rawBytes int64)
	// Cross is called when execution crosses a profiled PSE: workAt is
	// the work accumulated so far, contBytes the size a continuation at
	// this PSE would have (computed by size calculation, not
	// serialisation).
	Cross(id int32, workAt, contBytes int64)
	// SplitAt is called once per message with the split actually taken.
	SplitAt(id int32, modWork, contBytes int64)
}

// NopProbe is a SenderProbe that records nothing.
type NopProbe struct{}

// Message implements SenderProbe.
func (NopProbe) Message(int64) {}

// Cross implements SenderProbe.
func (NopProbe) Cross(int32, int64, int64) {}

// SplitAt implements SenderProbe.
func (NopProbe) SplitAt(int32, int64, int64) {}

// Output is the result of modulating one event.
type Output struct {
	// Raw is set when the plan ships the unmodulated event.
	Raw *wire.Raw
	// Cont is set when the handler was split: the continuation to send.
	Cont *wire.Continuation
	// Suppressed reports that the split was a trivial filter (resume at a
	// bare return with an empty hand-over set), so nothing is sent.
	Suppressed bool
	// SplitPSE is the PSE where the split happened (RawPSEID for raw,
	// ForcedSplit for defensive splits at non-PSE edges).
	SplitPSE int32
	// ModWork is the sender-side work spent (work units).
	ModWork int64
	// WireBytes is the marshalled size of what will be sent, frame header
	// included: exactly the length wire.Marshal produces (0 when
	// suppressed).
	WireBytes int64
	// RawBytes is the length the event's Raw frame would have: what
	// shipping it unmodulated costs, against which a split's bytes saved
	// are counted. Relays leave it 0 for continuations they advance.
	RawBytes int64
}

// Modulator is the sender-side half of a partitioned handler. It is safe
// for concurrent use; the active plan is swapped atomically.
type Modulator struct {
	c   *Compiled
	env *interp.Env
	// Probe receives profiling events; defaults to NopProbe.
	Probe SenderProbe
	// SuppressTrivial drops continuations that resume at a bare return
	// with nothing to hand over (events filtered out at the sender).
	SuppressTrivial bool
	// SampleEvery reduces profiling cost by periodic sampling (§2.5):
	// when >1, the profiling code runs only on every Nth message.
	// 0 or 1 profiles every message.
	SampleEvery uint64

	plan atomic.Pointer[Plan]
	seq  atomic.Uint64
}

// NewModulator builds a modulator executing in the sender-side environment.
// The initial plan ships raw events until a better plan is installed.
func NewModulator(c *Compiled, env *interp.Env) *Modulator {
	m := &Modulator{c: c, env: env, Probe: NopProbe{}, SuppressTrivial: true}
	initial, err := NewPlan(c.NumPSEs(), 0, []int32{RawPSEID}, nil)
	if err != nil {
		// NumPSEs >= 1 always; RawPSEID is always valid.
		panic(err)
	}
	m.plan.Store(initial)
	return m
}

// Plan returns the active plan.
func (m *Modulator) Plan() *Plan { return m.plan.Load() }

// PlanFingerprint returns the active plan's Fingerprint — the modulator's
// contribution to a publisher-side plan-equivalence class key.
func (m *Modulator) PlanFingerprint() uint64 { return m.plan.Load().Fingerprint() }

// SetPlan atomically installs a new plan. Plans with stale versions are
// ignored so reordered control messages cannot roll the modulator back.
func (m *Modulator) SetPlan(p *Plan) bool {
	for {
		cur := m.plan.Load()
		if cur != nil && p.Version() != 0 && p.Version() <= cur.Version() {
			return false
		}
		if m.plan.CompareAndSwap(cur, p) {
			return true
		}
	}
}

// ReplacePlan installs p unconditionally, bypassing SetPlan's version gate.
// It is for owners that track plan versions themselves: a publisher-side
// plan class serves members with independent version histories, so the
// version of its modulator's plan belongs to none of them.
func (m *Modulator) ReplacePlan(p *Plan) { m.plan.Store(p) }

// ErrStalePlan reports a wire plan rejected because its version does not
// advance past the active plan's — e.g. the peer's version counter lags a
// plan installed locally. Callers distinguish it from validation errors with
// errors.Is.
var ErrStalePlan = errors.New("stale plan version")

// ApplyWirePlan validates and installs a plan received as a wire message
// (see Compiled.WirePlan). A plan whose version the modulator has already
// passed returns ErrStalePlan (wrapped), so the rejection is visible to the
// caller instead of silently delaying plan convergence.
func (m *Modulator) ApplyWirePlan(wp *wire.Plan) error {
	p, err := m.c.WirePlan(wp)
	if err != nil {
		return err
	}
	if !m.SetPlan(p) {
		return fmt.Errorf("partition: %w: v%d not past active v%d",
			ErrStalePlan, p.Version(), m.Plan().Version())
	}
	return nil
}

// Process modulates one event under the active plan. Interpreter panics are
// recovered into classified Fault errors (see FaultClassOf), so a poisoned
// event cannot take down the publish path.
func (m *Modulator) Process(event mir.Value) (out *Output, err error) {
	defer recoverFault(&err)
	plan := m.plan.Load()
	seq := m.seq.Add(1)
	sampled := m.SampleEvery <= 1 || seq%m.SampleEvery == 0

	if plan.Raw() {
		raw := &wire.Raw{Seq: seq, Event: event, Schema: m.c.Schema}
		size := raw.FrameSize()
		m.Probe.Message(size)
		if sampled && plan.Profile(RawPSEID) {
			m.Probe.Cross(RawPSEID, 0, size)
		}
		m.Probe.SplitAt(RawPSEID, 0, size)
		return &Output{Raw: raw, SplitPSE: RawPSEID, WireBytes: size, RawBytes: size}, nil
	}

	machine, err := m.c.Code.NewMachine(m.env, []mir.Value{event})
	if err != nil {
		return nil, classify(wire.NackRestore, err)
	}
	defer machine.Release()
	res, err := runSplit(m.c, machine, plan, m.Probe, sampled, seq, 0)
	if err != nil {
		return nil, classify(wire.NackRuntime, err)
	}
	rawBytes := wire.RawFrameSize(seq, wire.SizeOf(m.c.Schema, event))
	m.Probe.Message(rawBytes)
	if res.outcome.Done {
		// Only possible when every path StopNode is the exit — which
		// cannot happen since returns are StopNodes — so treat as a
		// completed-at-sender anomaly.
		return nil, faultf(wire.NackRuntime, "partition: %s completed at sender; missing StopNodes", m.c.Prog.Name)
	}

	work := res.outcome.Work
	if m.SuppressTrivial && m.c.Prog.Instrs[res.outcome.Split.To].Op == mir.OpReturn && allUnset(machine, res.regs) {
		m.Probe.SplitAt(res.splitID, work, 0)
		return &Output{Suppressed: true, SplitPSE: res.splitID, ModWork: work, RawBytes: rawBytes}, nil
	}
	cont := m.c.continuation(machine, res, seq, work)
	size := cont.FrameSize()
	m.Probe.SplitAt(res.splitID, work, size)
	return &Output{Cont: cont, SplitPSE: res.splitID, ModWork: work, WireBytes: size, RawBytes: rawBytes}, nil
}

// allUnset reports that none of registers regs holds a value: a split
// there hands nothing over.
func allUnset(machine *interp.CodeMachine, regs []int) bool {
	for _, idx := range regs {
		if idx >= 0 && machine.IsSet(idx) {
			return false
		}
	}
	return true
}

// continuation builds the message a split res ships from machine's
// registers: its slots in the split's variable order, copied unboxed.
func (c *Compiled) continuation(machine *interp.CodeMachine, res *splitResult, seq uint64, work int64) *wire.Continuation {
	return &wire.Continuation{
		Seq:        seq,
		PSEID:      res.splitID,
		Forced:     res.forced,
		ResumeNode: int32(res.outcome.Split.To),
		Vars:       machine.AppendSlots(make([]wire.Slot, 0, len(res.regs)), res.regs),
		ModWork:    work,
		Schema:     c.Schema,
	}
}
