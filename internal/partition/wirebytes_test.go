package partition_test

import (
	"fmt"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/reconfig"
	"methodpart/internal/sensor"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// crossSizes records the size of each PSE's last profiled crossing.
type crossSizes struct {
	partition.NopProbe
	last map[int32]int64
}

func (p *crossSizes) Cross(id int32, _, size int64) { p.last[id] = size }

// pricedHandler is a compiled handler with a sender environment and the
// events it is priced on.
type pricedHandler struct {
	c      *partition.Compiled
	env    func() *interp.Env
	events []func() mir.Value
}

// pricedHandlers compiles the handlers TestWireBytesExact prices: the two
// image handlers, the sensor handler, and random programs of seeds 1–200
// over int events and over declared-class Box events.
func pricedHandlers(t *testing.T) map[string]pricedHandler {
	t.Helper()
	out := map[string]pricedHandler{}
	compileUnit := func(name string, u *asm.Unit, handler string, builtins func() *interp.Registry, model costmodel.Model, events ...func() mir.Value) {
		prog, _ := u.Program(handler)
		classes, err := u.ClassTable()
		if err != nil {
			t.Fatal(err)
		}
		c, err := partition.Compile(prog, classes, builtins(), model)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out[name] = pricedHandler{c: c, env: func() *interp.Env { return interp.NewEnv(classes, builtins()) }, events: events}
	}
	imgReg := func() *interp.Registry { r, _ := imaging.Builtins(); return r }
	frames := []func() mir.Value{
		func() mir.Value { return imaging.NewFrame(16, 16, 1) },
		func() mir.Value { return imaging.NewFrame(150, 120, 2) },
	}
	compileUnit("show", imaging.HandlerUnit(100), imaging.HandlerName, imgReg, costmodel.NewDataSize(), frames...)
	compileUnit("showRich", imaging.RichHandlerUnit(100), imaging.RichHandlerName, imgReg, costmodel.NewDataSize(), frames...)
	sensorReg := func() *interp.Registry { r, _ := sensor.Builtins(sensor.DefaultStages); return r }
	compileUnit("sensor", sensor.HandlerUnit(sensor.DefaultStages), sensor.HandlerName, sensorReg, costmodel.NewExecTime(),
		func() mir.Value { return sensor.NewFrame(3, 64) })
	sinkReg := func() *interp.Registry { r, _ := testprog.SinkRegistry(); return r }
	for seed := int64(1); seed <= 200; seed++ {
		c, err := partition.Compile(testprog.RandomProgram(seed), nil, sinkReg(), costmodel.NewDataSize())
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		out[fmt.Sprintf("seed %d", seed)] = pricedHandler{c: c, env: func() *interp.Env { return interp.NewEnv(nil, sinkReg()) },
			events: []func() mir.Value{func() mir.Value { return mir.Int(seed*1000 - 70000) }}}
		classes := testprog.BoxClasses()
		c, err = partition.Compile(testprog.RandomObjectProgram(seed), classes, sinkReg(), costmodel.NewDataSize())
		if err != nil {
			t.Fatalf("objects %d: compile: %v", seed, err)
		}
		var events []func() mir.Value
		for _, ev := range objectEvents(seed) {
			events = append(events, ev)
		}
		out[fmt.Sprintf("objects %d", seed)] = pricedHandler{c: c, env: func() *interp.Env { return interp.NewEnv(classes, sinkReg()) }, events: events}
	}
	return out
}

// TestWireBytesExact: the byte price of a cut is the frame it ships. For
// every valid cut of every priced handler, Output.WireBytes equals the
// length of the frame MarshalFrame encodes, RawBytes equals the length of
// the event's Raw frame, and the profiled crossing of the PSE the event
// split at priced those same bytes — header included, so raw and a
// continuation that carries the event unchanged never price alike.
func TestWireBytesExact(t *testing.T) {
	checked := 0
	for name, h := range pricedHandlers(t) {
		tbl := h.c.CutTable(reconfig.DefaultMaxCandidates)
		for i, cut := range tbl.Cuts {
			if !tbl.Valid(i) {
				continue
			}
			plan, err := tbl.Plan(i, true)
			if err != nil {
				t.Fatal(err)
			}
			mod := partition.NewModulator(h.c, h.env())
			mod.SetPlan(plan)
			probe := &crossSizes{last: map[int32]int64{}}
			mod.Probe = probe
			for _, ev := range h.events {
				clear(probe.last)
				event := ev()
				out, err := mod.Process(event)
				if err != nil {
					t.Fatalf("%s cut %v: %v", name, cut, err)
				}
				if out.Suppressed {
					continue
				}
				var msg any = out.Raw
				seq := uint64(0)
				if out.Cont != nil {
					msg, seq = out.Cont, out.Cont.Seq
				} else {
					seq = out.Raw.Seq
				}
				frameLen := marshalledLen(t, msg)
				if out.WireBytes != frameLen {
					t.Errorf("%s cut %v: WireBytes %d, frame %d bytes", name, cut, out.WireBytes, frameLen)
				}
				if raw := marshalledLen(t, &wire.Raw{Seq: seq, Event: event, Schema: h.c.Schema}); out.RawBytes != raw {
					t.Errorf("%s cut %v: RawBytes %d, raw frame %d bytes", name, cut, out.RawBytes, raw)
				}
				if size, ok := probe.last[out.SplitPSE]; ok && size != frameLen {
					t.Errorf("%s cut %v: crossing PSE %d priced %d bytes, frame %d", name, cut, out.SplitPSE, size, frameLen)
				}
				checked++
			}
		}
	}
	t.Logf("priced %d frames", checked)
}

// marshalledLen encodes msg into a pooled frame and returns its length.
func marshalledLen(t *testing.T, msg any) int64 {
	t.Helper()
	f, err := wire.MarshalFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(f.Len())
	f.Release()
	return n
}
