package partition_test

import (
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/sensor"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// chainFixture compiles the sensor handler and builds a
// sender → relay → receiver chain.
type chainFixture struct {
	c     *partition.Compiled
	mod   *partition.Modulator
	relay *partition.Relay
	demod *partition.Demodulator
	sink  *sensor.Sink
}

const chainStages = 8

func newChain(t *testing.T) *chainFixture {
	t.Helper()
	unit := sensor.HandlerUnit(chainStages)
	prog, _ := unit.Program(sensor.HandlerName)
	classes, err := unit.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	oracleReg, _ := sensor.Builtins(chainStages)
	c, err := partition.Compile(prog, classes, oracleReg, costmodel.NewExecTime())
	if err != nil {
		t.Fatal(err)
	}
	mkEnv := func() (*interp.Env, *sensor.Sink) {
		reg, sink := sensor.Builtins(chainStages)
		return interp.NewEnv(classes, reg), sink
	}
	senderEnv, _ := mkEnv()
	relayEnv, _ := mkEnv()
	recvEnv, sink := mkEnv()
	return &chainFixture{
		c:     c,
		mod:   partition.NewModulator(c, senderEnv),
		relay: partition.NewRelay(c, relayEnv),
		demod: partition.NewDemodulator(c, recvEnv),
		sink:  sink,
	}
}

// stagePSE returns the PSE id that cuts after stage k.
func stagePSE(t *testing.T, c *partition.Compiled, k int) int32 {
	t.Helper()
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		p, _ := c.PSE(id)
		if p.Edge.From == 3+k && p.Edge.To == 4+k && len(p.Vars) > 0 {
			return id
		}
	}
	t.Fatalf("no PSE after stage %d", k)
	return -1
}

// filterPSE returns the empty-hand-over filter-path PSE.
func filterPSE(t *testing.T, c *partition.Compiled) int32 {
	t.Helper()
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		p, _ := c.PSE(id)
		if len(p.Vars) == 0 {
			return id
		}
	}
	t.Fatal("no filter PSE")
	return -1
}

// wireHop sends an output through a pooled frame and back, as a real hop
// does, and checks that its WireBytes priced that frame exactly.
func wireHop(t *testing.T, out *partition.Output) any {
	t.Helper()
	var msg any
	if out.Raw != nil {
		msg = out.Raw
	} else {
		msg = out.Cont
	}
	frame, err := wire.MarshalFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(frame.Len()) != out.WireBytes {
		t.Fatalf("split %d: WireBytes %d, frame is %d bytes", out.SplitPSE, out.WireBytes, frame.Len())
	}
	data := append([]byte(nil), frame.Bytes()...)
	frame.Release()
	back, err := wire.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestThreeWayPartition runs sender stages 1..2, relay stages 3..5,
// receiver the rest, and checks the result equals an unsplit run.
func TestThreeWayPartition(t *testing.T) {
	f := newChain(t)
	filter := filterPSE(t, f.c)

	modPlan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{stagePSE(t, f.c, 2), filter}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.mod.SetPlan(modPlan)
	relayPlan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{stagePSE(t, f.c, 5), filter}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.relay.SetPlan(relayPlan)

	frame := sensor.NewFrame(7, 256)
	// Reference: unsplit execution.
	refReg, refSink := sensor.Builtins(chainStages)
	refEnv := interp.NewEnv(f.c.Classes, refReg)
	machine, err := interp.NewMachine(refEnv, f.c.Prog, []mir.Value{frame})
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := machine.Run()
	if err != nil {
		t.Fatal(err)
	}

	out1, err := f.mod.Process(sensor.NewFrame(7, 256))
	if err != nil {
		t.Fatal(err)
	}
	if out1.Cont == nil {
		t.Fatalf("sender did not split: %+v", out1)
	}
	if got := out1.Cont.ResumeNode; got != int32(4+2) {
		t.Fatalf("sender resume node = %d, want %d", got, 4+2)
	}

	out2, err := f.relay.Process(wireHop(t, out1))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cont == nil {
		t.Fatalf("relay did not split: %+v", out2)
	}
	if got := out2.Cont.ResumeNode; got != int32(4+5) {
		t.Fatalf("relay resume node = %d, want %d", got, 4+5)
	}
	// Cumulative work carried forward.
	if out2.Cont.ModWork <= out1.Cont.ModWork {
		t.Fatalf("relay did not accumulate work: %d then %d", out1.Cont.ModWork, out2.Cont.ModWork)
	}

	res, err := f.demod.Process(wireHop(t, out2))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.sink.Outputs) != 1 {
		t.Fatalf("sink outputs = %d", len(f.sink.Outputs))
	}
	if !mir.Equal(f.sink.Outputs[0], (*refSink).Outputs[0]) {
		t.Error("three-way partitioned output differs from unsplit run")
	}
	// Total work conserved: sender + relay + receiver == whole.
	total := out1.ModWork + out2.ModWork + res.DemodWork
	if total != refOut.Work {
		t.Errorf("work: %d split vs %d whole", total, refOut.Work)
	}
}

// TestRelayPassThrough: under its initial plan the relay forwards messages
// untouched.
func TestRelayPassThrough(t *testing.T) {
	f := newChain(t)
	// Sender splits after stage 4.
	plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{stagePSE(t, f.c, 4), filterPSE(t, f.c)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.mod.SetPlan(plan)
	out1, err := f.mod.Process(sensor.NewFrame(1, 64))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := f.relay.Process(wireHop(t, out1))
	if err != nil {
		t.Fatal(err)
	}
	if out2.ModWork != 0 {
		t.Fatalf("pass-through relay did work: %d", out2.ModWork)
	}
	if out2.Cont.ResumeNode != out1.Cont.ResumeNode {
		t.Fatalf("pass-through moved the resume node: %d -> %d", out1.Cont.ResumeNode, out2.Cont.ResumeNode)
	}
	if _, err := f.demod.Process(wireHop(t, out2)); err != nil {
		t.Fatal(err)
	}
	if len(f.sink.Outputs) != 1 {
		t.Fatalf("sink outputs = %d", len(f.sink.Outputs))
	}
}

// TestRelayModulatesRawEvents: a relay given raw events acts as a
// third-party modulator (broker-style derivation).
func TestRelayModulatesRawEvents(t *testing.T) {
	f := newChain(t)
	plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{stagePSE(t, f.c, 3), filterPSE(t, f.c)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.relay.SetPlan(plan)
	raw := &wire.Raw{Seq: 1, Event: sensor.NewFrame(2, 64), Schema: f.c.Schema}
	out, err := f.relay.Process(raw)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cont == nil || out.Cont.ResumeNode != int32(4+3) {
		t.Fatalf("relay raw modulation: %+v", out)
	}
	if _, err := f.demod.Process(wireHop(t, out)); err != nil {
		t.Fatal(err)
	}
}

// TestRelayNeverRunsStopNodes: even when the incoming continuation resumes
// right before the native sink and the relay plan flags nothing useful, the
// relay must pass through rather than execute the StopNode.
func TestRelayNeverRunsStopNodes(t *testing.T) {
	f := newChain(t)
	// Sender splits at the last stage boundary; the resume node is the
	// final stage call followed by the native deliver.
	last := stagePSE(t, f.c, chainStages)
	plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{last, filterPSE(t, f.c)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.mod.SetPlan(plan)
	// Relay flags every PSE — none remain downstream of the resume node,
	// so the forced-split safety must kick in before the StopNode.
	all := make([]int32, 0, f.c.NumPSEs()-1)
	for id := int32(1); id < int32(f.c.NumPSEs()); id++ {
		all = append(all, id)
	}
	rplan, err := partition.NewPlan(f.c.NumPSEs(), 1, all, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.relay.SetPlan(rplan)

	out1, err := f.mod.Process(sensor.NewFrame(3, 64))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := f.relay.Process(wireHop(t, out1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.demod.Process(wireHop(t, out2)); err != nil {
		t.Fatal(err)
	}
	if len(f.sink.Outputs) != 1 {
		t.Fatalf("sink outputs = %d (StopNode must run exactly once, at the receiver)", len(f.sink.Outputs))
	}
}

// TestRelayWrongHandlerRejected guards routing: with no handler name on
// the wire, a frame for another handler shows up as a class index or PSE
// this handler's layout lacks, and the relay refuses it.
func TestRelayWrongHandlerRejected(t *testing.T) {
	f := newChain(t)
	plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{stagePSE(t, f.c, 3), filterPSE(t, f.c)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.relay.SetPlan(plan)
	foreign, err := wire.Unmarshal([]byte{byte(wire.MsgRaw), 1, 11 /* tagClass */, 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.relay.Process(foreign); err == nil {
		t.Error("raw of an undeclared class index accepted")
	}
	if _, err := f.relay.Process(&wire.Continuation{PSEID: int32(f.c.NumPSEs())}); err == nil {
		t.Error("continuation at an unknown PSE accepted")
	}
	if _, err := f.relay.Process(&wire.Continuation{PSEID: partition.ForcedSplit, Forced: 999}); err == nil {
		t.Error("continuation at an unknown forced split accepted")
	}
	if _, err := f.relay.Process(42); err == nil {
		t.Error("non-message accepted")
	}
}

// TestRelayOnPushExample: three-way split of the paper's push handler via
// assembled source, checking resume-node monotonicity.
func TestRelayOnPushExample(t *testing.T) {
	u := asm.MustParse(testprog.PushSource)
	prog, _ := u.Program("push")
	classes, _ := u.ClassTable()
	oracle, _ := testprog.PushBuiltins()
	c, err := partition.Compile(prog, classes, oracle, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	sendReg, _ := testprog.PushBuiltins()
	relayReg, _ := testprog.PushBuiltins()
	recvReg, displayed := testprog.PushBuiltins()
	mod := partition.NewModulator(c, interp.NewEnv(classes, sendReg))
	relay := partition.NewRelay(c, interp.NewEnv(classes, relayReg))
	demod := partition.NewDemodulator(c, interp.NewEnv(classes, recvReg))

	// Sender: earliest cut; relay: post-transform cut.
	var filter, pre, post int32 = -1, -1, -1
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		p, _ := c.PSE(id)
		switch {
		case len(p.Vars) == 0:
			filter = id
		case pre < 0:
			pre = id
		default:
			post = id
		}
	}
	mp, _ := partition.NewPlan(c.NumPSEs(), 1, []int32{pre, filter}, nil)
	mod.SetPlan(mp)
	rp, _ := partition.NewPlan(c.NumPSEs(), 1, []int32{post, filter}, nil)
	relay.SetPlan(rp)

	out1, err := mod.Process(testprog.NewImageData(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	out2, err := relay.Process(wireHop(t, out1))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cont.ResumeNode <= out1.Cont.ResumeNode {
		t.Fatalf("relay resume %d not past sender resume %d", out2.Cont.ResumeNode, out1.Cont.ResumeNode)
	}
	if _, err := demod.Process(wireHop(t, out2)); err != nil {
		t.Fatal(err)
	}
	if len(*displayed) != 1 || (*displayed)[0].Fields["width"] != mir.Int(100) {
		t.Fatalf("display = %v", *displayed)
	}
}
