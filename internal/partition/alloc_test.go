package partition_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// TestProcessRawProfilingAllocs: receiver-side profiling prices each
// crossing from the machine's live registers with a pooled sizer and a
// pooled hook, so profiling every PSE adds no allocation to a message.
func TestProcessRawProfilingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, path is not allocation-free")
	}
	// Endpoints run on the compiled code machine; the subtest keeps the
	// name it had while a stepping engine could be selected.
	t.Run("compiled", func(t *testing.T) {
		f := newFixture(t, costmodel.NewDataSize())
		probe := &countingProbe{}
		f.demod.CrossProbe = probe
		msg := &wire.Raw{Seq: 1, Event: testprog.NewImageData(16, 16)}
		run := func() {
			*f.displayed = (*f.displayed)[:0]
			if _, err := f.demod.ProcessRaw(msg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		off := testing.AllocsPerRun(200, run)

		all := make([]int32, f.c.NumPSEs())
		for i := range all {
			all[i] = int32(i)
		}
		plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{partition.RawPSEID}, all)
		if err != nil {
			t.Fatal(err)
		}
		f.demod.SetProfilePlan(plan)
		run()
		if probe.crosses == 0 {
			t.Fatal("profiling every PSE observed no crossing")
		}
		on := testing.AllocsPerRun(200, run)
		if on != off {
			t.Fatalf("ProcessRaw allocates %.1f with every PSE profiled, %.1f without; want profiling to add 0", on, off)
		}
	})
}

// TestContinuationDecodeRestoreAllocs pins the receive path of a
// continuation: decoding the frame and restoring its slots into a pooled
// machine allocates only the message and the payload the handler receives
// — the Box object (1), its field map (2) and its data array (2: backing
// array and the slice boxed into an mir.Value). The int and bool slots go
// unboxed into registers, the aliased second Box slot is a back-reference,
// and no variable map is built on either end.
func TestContinuationDecodeRestoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool drops Puts by design, path is not allocation-free")
	}
	classes := testprog.BoxClasses()
	reg, _ := testprog.SinkRegistry()
	c, err := partition.Compile(testprog.RandomObjectProgram(3), classes, reg, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	var pse *partition.PSE
	for i := range c.PSEs {
		if p := &c.PSEs[i]; slices.Contains(p.Vars, "n0") && slices.Contains(p.Vars, "alias") {
			pse = p
		}
	}
	if pse == nil {
		t.Fatal("no PSE carries both the aliased Box and an int")
	}
	// The Box's own n is small enough for the runtime's cache of boxed
	// ints, so the payload is exactly the five objects counted above; the
	// n0 slot carries an int that would allocate if it were boxed.
	box := testprog.NewBox(100, 64)
	vars := make([]wire.Slot, len(pse.Vars))
	for i, n := range pse.Vars {
		switch n {
		case "event", "alias":
			vars[i] = wire.ValueSlot(box)
		case "n0":
			vars[i] = wire.ValueSlot(mir.Int(1000))
		case "small":
			vars[i] = wire.ValueSlot(mir.Bool(false))
		}
	}
	data, err := wire.Marshal(&wire.Continuation{Seq: 1 << 20, PSEID: pse.ID, ModWork: 12, Vars: vars, Schema: c.Schema})
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(classes, reg)
	regs := c.Code.Regs(pse.Vars)
	buf := make([]wire.Slot, 0, len(regs))
	run := func() {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := msg.(*wire.Continuation).DecodeVars(c.Schema, len(regs), buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Code.Restore(env, pse.Edge.To, regs, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !m.IsSet(regs[slices.Index(pse.Vars, "n0")]) {
			t.Fatal("n0 not restored")
		}
		m.Release()
	}
	run()
	// Continuation (1) + Box (1) + field map (2) + data (2).
	if n := testing.AllocsPerRun(200, run); n != 6 {
		t.Fatalf("decode + restore allocates %.1f, want exactly 6", n)
	}
}

// TestCompileInternTableBounded: publishers compile subscriber-supplied
// handlers, each registering its names for the decoder. Compiling more
// distinct programs than the intern table's cap keeps it within the cap,
// and the newest handler's names stay registered.
func TestCompileInternTableBounded(t *testing.T) {
	for i := 0; i <= wire.InternCap; i++ {
		name := fmt.Sprintf("h%d", i)
		u := asm.MustParse(fmt.Sprintf("func %s(ev%d) {\n  x%d = move ev%d\n  call sink x%d\n  return\n}\n", name, i, i, i, i))
		prog, _ := u.Program(name)
		reg, _ := testprog.SinkRegistry()
		if _, err := partition.Compile(prog, nil, reg, costmodel.NewDataSize()); err != nil {
			t.Fatal(err)
		}
		if n := wire.InternedNames(); n > wire.InternCap {
			t.Fatalf("after %d programs the intern table holds %d names, cap %d", i+1, n, wire.InternCap)
		}
	}
	last := fmt.Sprintf("h%d", wire.InternCap)
	frame, err := wire.Marshal(&wire.Nack{Handler: last, Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The message (1) is all a registered handler name costs to decode.
	if n := testing.AllocsPerRun(50, func() {
		if _, err := wire.Unmarshal(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("decoding a Nack for the newest handler allocates %.1f, want 1 (its name interned)", n)
	}
}

// lockedPushBuiltins is PushBuiltins with every call serialised, so
// goroutines can share one receiver environment (its display sink is a
// plain slice).
func lockedPushBuiltins() *interp.Registry {
	base, _ := testprog.PushBuiltins()
	reg := interp.NewRegistry()
	var mu sync.Mutex
	for _, name := range base.Names() {
		b, _ := base.Lookup(name)
		nb := *b
		fn := b.Fn
		nb.Fn = func(env *interp.Env, args []mir.Value) (mir.Value, error) {
			mu.Lock()
			defer mu.Unlock()
			return fn(env, args)
		}
		reg.MustRegister(nb)
	}
	return reg
}

// sumProbe totals crossings and priced bytes per PSE.
type sumProbe struct {
	partition.NopProbe
	mu    sync.Mutex
	count map[int32]int
	bytes map[int32]int64
}

func (p *sumProbe) Cross(id int32, _, size int64) {
	p.mu.Lock()
	p.count[id]++
	p.bytes[id] += size
	p.mu.Unlock()
}

// TestConcurrentProfiledDemodulation: goroutines sharing one demodulator
// draw its profiling hooks and sizers from pools. A pooled sizer shared by
// two walks would price values as back-references, so the concurrent run
// must report exactly the crossings and sizes of a sequential one.
func TestConcurrentProfiledDemodulation(t *testing.T) {
	const workers, perW = 4, 100
	run := func(concurrent bool) *sumProbe {
		f := newFixture(t, costmodel.NewDataSize())
		demod := partition.NewDemodulator(f.c, interp.NewEnv(f.c.Classes, lockedPushBuiltins()))
		probe := &sumProbe{count: map[int32]int{}, bytes: map[int32]int64{}}
		demod.CrossProbe = probe
		plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{partition.RawPSEID}, partition.AllProfileIDs(f.c))
		if err != nil {
			t.Fatal(err)
		}
		demod.SetProfilePlan(plan)
		work := func(w int) {
			for i := 0; i < perW; i++ {
				msg := &wire.Raw{Seq: uint64(i), Event: testprog.NewImageData(8+w, 8+w)}
				if _, err := demod.ProcessRaw(msg); err != nil {
					t.Error(err)
					return
				}
			}
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			if !concurrent {
				work(w)
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				work(w)
			}(w)
		}
		wg.Wait()
		return probe
	}
	seq, conc := run(false), run(true)
	if len(seq.count) == 0 {
		t.Fatal("no profiled crossing observed")
	}
	for id, n := range seq.count {
		if conc.count[id] != n || conc.bytes[id] != seq.bytes[id] {
			t.Errorf("PSE %d: concurrent %d crossings / %d B, sequential %d / %d B",
				id, conc.count[id], conc.bytes[id], n, seq.bytes[id])
		}
	}
}
