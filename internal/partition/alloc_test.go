package partition_test

import (
	"fmt"
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
	for _, engine := range []partition.Engine{partition.EngineCompiled, partition.EngineStepping} {
		t.Run(engine.String(), func(t *testing.T) {
			f := newFixture(t, costmodel.NewDataSize())
			f.c.Engine = engine
			probe := &countingProbe{}
			f.demod.CrossProbe = probe
			msg := &wire.Raw{Handler: "push", Seq: 1, Event: testprog.NewImageData(16, 16)}
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
				msg := &wire.Raw{Handler: "push", Seq: uint64(i), Event: testprog.NewImageData(8+w, 8+w)}
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
