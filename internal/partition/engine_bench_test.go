package partition_test

import (
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// benchHandler compiles the loop handler, the interpreter-bound workload.
func benchHandler(b *testing.B) (*partition.Compiled, *interp.Registry) {
	b.Helper()
	u := asm.MustParse(testprog.LoopSource)
	prog, ok := u.Program("sum")
	if !ok {
		b.Fatal("sum program missing")
	}
	reg, _ := testprog.LoopBuiltins()
	c, err := partition.Compile(prog, nil, reg, costmodel.NewDataSize())
	if err != nil {
		b.Fatal(err)
	}
	return c, reg
}

func benchEvent(n int) mir.Value {
	arr := make(mir.IntArray, n)
	for i := range arr {
		arr[i] = int64(i % 97)
	}
	return arr
}

// splitPlanFor returns a non-raw plan cutting at the highest PSE that forms
// a valid cut — for the loop handler, the edge into the native epilogue, so
// the modulator runs the whole loop at the sender.
func splitPlanFor(b *testing.B, c *partition.Compiled) *partition.Plan {
	b.Helper()
	for id := int32(c.NumPSEs()) - 1; id >= 1; id-- {
		if c.ValidateSplitSet([]int32{id}) == nil {
			plan, err := partition.NewPlan(c.NumPSEs(), 1, []int32{id}, nil)
			if err != nil {
				b.Fatal(err)
			}
			return plan
		}
	}
	b.Fatal("no single-PSE plan cuts the handler")
	return nil
}

// BenchmarkModulate measures the sender-side hot path (Modulator.Process
// under a splitting plan).
func BenchmarkModulate(b *testing.B) {
	c, reg := benchHandler(b)
	mod := partition.NewModulator(c, interp.NewEnv(nil, reg))
	mod.SetPlan(splitPlanFor(b, c))
	ev := benchEvent(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := mod.Process(ev)
		if err != nil {
			b.Fatal(err)
		}
		if out.Cont == nil {
			b.Fatal("modulator did not split")
		}
	}
}

// BenchmarkDemodulate measures the receiver-side hot path
// (Demodulator.ProcessRaw running the whole handler).
func BenchmarkDemodulate(b *testing.B) {
	c, reg := benchHandler(b)
	demod := partition.NewDemodulator(c, interp.NewEnv(nil, reg))
	msg := &wire.Raw{Event: benchEvent(1024)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := demod.ProcessRaw(msg)
		if err != nil {
			b.Fatal(err)
		}
		if res.SplitPSE != partition.RawPSEID {
			b.Fatal("unexpected split")
		}
	}
}
