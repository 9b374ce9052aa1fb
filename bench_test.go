// Benchmarks regenerating the paper's evaluation. One benchmark per table
// and figure (reporting the table's value as a custom metric on a reduced
// workload), plus wall-clock microbenchmarks for the §5.3 overheads: plan
// switching, continuation marshalling, size calculation and the min-cut
// reconfiguration itself.
package methodpart_test

import (
	"fmt"
	"testing"

	"methodpart"
	"methodpart/internal/bench"
	"methodpart/internal/costmodel"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/sensor"
	"methodpart/internal/sizeof"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// --- Table 1: serialization vs size calculation vs self-described size ---

func BenchmarkTable1Serialization(b *testing.B) {
	for _, subj := range sizeof.Table1Subjects() {
		b.Run(subj.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sizeof.SerializedSize(subj.Value); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable1SizeCalc(b *testing.B) {
	for _, subj := range sizeof.Table1Subjects() {
		b.Run(subj.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = sizeof.ReflectSize(subj.Value)
			}
		})
	}
}

func BenchmarkTable1SelfSize(b *testing.B) {
	for _, subj := range sizeof.Table1Subjects() {
		if !subj.HasSelfSize {
			continue
		}
		ss := subj.Value.(sizeof.SelfSized)
		b.Run(subj.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = ss.SizeOf()
			}
		})
	}
}

// --- Tables 2-4 and Figures 7-8: one simulated run per iteration ---

func benchImageCfg() bench.ImageConfig {
	cfg := bench.DefaultImageConfig()
	cfg.Frames = 150
	return cfg
}

func benchSensorCfg() bench.SensorConfig {
	cfg := bench.DefaultSensorConfig()
	cfg.Frames = 60
	cfg.Seeds = []int64{11}
	return cfg
}

func BenchmarkTable2(b *testing.B) {
	cfg := benchImageCfg()
	variants := []bench.ImageVariant{
		bench.VariantImageLtDisplay, bench.VariantImageGtDisplay, bench.VariantMethodPartitioning,
	}
	scenarios := []bench.ImageScenario{bench.ScenarioSmall, bench.ScenarioLarge, bench.ScenarioMixed}
	for _, v := range variants {
		for _, sc := range scenarios {
			b.Run(fmt.Sprintf("%s/%s", v, sc), func(b *testing.B) {
				var fps float64
				for i := 0; i < b.N; i++ {
					res, err := bench.ImageCell(cfg, v, sc)
					if err != nil {
						b.Fatal(err)
					}
					fps = res.FPS
				}
				b.ReportMetric(fps, "fps")
			})
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	cfg := benchSensorCfg()
	for _, v := range bench.SensorVariants() {
		for _, dir := range []string{"PC->Sun", "Sun->PC"} {
			c := cfg
			if dir == "PC->Sun" {
				c.ProducerSpeed, c.ConsumerSpeed = bench.PCSpeed, bench.SunSpeed
			} else {
				c.ProducerSpeed, c.ConsumerSpeed = bench.SunSpeed, bench.PCSpeed
			}
			b.Run(fmt.Sprintf("%s/%s", v, dir), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					got, err := bench.SensorCell(c, v, 0, 0)
					if err != nil {
						b.Fatal(err)
					}
					ms = got
				}
				b.ReportMetric(ms, "msg-ms")
			})
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := benchSensorCfg()
	for _, load := range bench.Table4Loads() {
		for _, v := range bench.SensorVariants() {
			b.Run(fmt.Sprintf("%s/p%.1f-c%.1f", v, load.Producer, load.Consumer), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					got, err := bench.SensorCell(cfg, v, load.Producer, load.Consumer)
					if err != nil {
						b.Fatal(err)
					}
					ms = got
				}
				b.ReportMetric(ms, "msg-ms")
			})
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	cfg := benchSensorCfg()
	for _, ap := range []float64{0, 0.5, 1.0} {
		c := cfg
		c.AProb = ap
		for _, v := range bench.SensorVariants() {
			b.Run(fmt.Sprintf("%s/AProb%.1f", v, ap), func(b *testing.B) {
				var ms float64
				for i := 0; i < b.N; i++ {
					got, err := bench.SensorCell(c, v, 0, 0.8)
					if err != nil {
						b.Fatal(err)
					}
					ms = got
				}
				b.ReportMetric(ms, "msg-ms")
			})
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	cfg := benchSensorCfg()
	for _, plen := range []float64{250, 1000, 4000} {
		c := cfg
		c.PLenMS = plen
		b.Run(fmt.Sprintf("MP/PLen%.0f", plen), func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				got, err := bench.SensorCell(c, bench.VariantMP, 0, 0.8)
				if err != nil {
					b.Fatal(err)
				}
				ms = got
			}
			b.ReportMetric(ms, "msg-ms")
		})
	}
}

// --- §5.3 overhead ablations ---

func compilePush(b *testing.B, model costmodel.Model) *partition.Compiled {
	b.Helper()
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, err := u.ClassTable()
	if err != nil {
		b.Fatal(err)
	}
	reg, _ := testprog.PushBuiltins()
	c, err := partition.Compile(prog, classes, reg, model)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkPlanSwitch measures the paper's "adaptations simply involve
// changes to a few flag values": one atomic plan swap.
func BenchmarkPlanSwitch(b *testing.B) {
	c := compilePush(b, costmodel.NewDataSize())
	u := testprog.PushUnit()
	classes, _ := u.ClassTable()
	reg, _ := testprog.PushBuiltins()
	mod := partition.NewModulator(c, methodpart.NewEnv(c, reg))
	_ = classes
	plans := make([]*partition.Plan, 2)
	var err error
	if plans[0], err = partition.NewPlan(c.NumPSEs(), 0, []int32{partition.RawPSEID}, nil); err != nil {
		b.Fatal(err)
	}
	if plans[1], err = partition.NewPlan(c.NumPSEs(), 0, []int32{1, 2}, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod.SetPlan(plans[i%2])
	}
}

// BenchmarkModulatorProcess measures one full sender-side modulation of the
// push handler, including the split snapshot.
func BenchmarkModulatorProcess(b *testing.B) {
	for _, plan := range []struct {
		name  string
		split []int32
	}{
		{"raw", []int32{partition.RawPSEID}},
		{"pre-transform", []int32{1, 2}},
		{"post-transform", []int32{1, 3}},
	} {
		b.Run(plan.name, func(b *testing.B) {
			c := compilePush(b, costmodel.NewDataSize())
			reg, _ := testprog.PushBuiltins()
			mod := partition.NewModulator(c, methodpart.NewEnv(c, reg))
			p, err := partition.NewPlan(c.NumPSEs(), 1, plan.split, nil)
			if err != nil {
				b.Fatal(err)
			}
			mod.SetPlan(p)
			ev := testprog.NewImageData(64, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mod.Process(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// imageContinuation is a continuation carrying a 64x64 image in its one
// slot, laid out under the push handler's schema.
func imageContinuation(b *testing.B) (*wire.Continuation, *wire.Schema) {
	classes, err := testprog.PushUnit().ClassTable()
	if err != nil {
		b.Fatal(err)
	}
	schema := wire.NewSchema(classes)
	return &wire.Continuation{
		PSEID:  2,
		Vars:   []wire.Slot{wire.ValueSlot(testprog.NewImageData(64, 64))},
		Schema: schema,
	}, schema
}

// BenchmarkContinuationMarshal measures wire encoding of a continuation
// carrying a 64x64 image.
func BenchmarkContinuationMarshal(b *testing.B) {
	cont, _ := imageContinuation(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := wire.Marshal(cont)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// BenchmarkContinuationUnmarshal measures the demodulator-side decode:
// the frame, then its slots against the handler's layout.
func BenchmarkContinuationUnmarshal(b *testing.B) {
	cont, schema := imageContinuation(b)
	data, err := wire.Marshal(cont)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	slots := make([]wire.Slot, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			b.Fatal(err)
		}
		if slots, err = msg.(*wire.Continuation).DecodeVars(schema, 1, slots[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeCalculation measures the profiling-path size computation
// (size only, no serialization) for a 64x64 image event.
func BenchmarkSizeCalculation(b *testing.B) {
	_, schema := imageContinuation(b)
	ev := testprog.NewImageData(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = wire.SizeOf(schema, ev)
	}
}

// BenchmarkMinCut measures the reconfiguration algorithm on the 4-PSE image
// handler and the ~22-PSE sensor handler (the paper: "negligible overheads
// for running the reconfiguration algorithm" at 5 and 21 PSEs).
func BenchmarkMinCut(b *testing.B) {
	cases := []struct {
		name    string
		c       *partition.Compiled
		collect func(*partition.Compiled) map[int32]costmodel.Stat
	}{
		{
			name: "imageHandler",
			c:    compilePush(b, costmodel.NewDataSize()),
		},
		{
			name: "sensorHandler21PSE",
			c: func() *partition.Compiled {
				unit := sensor.HandlerUnit(sensor.DefaultStages)
				prog, _ := unit.Program(sensor.HandlerName)
				classes, _ := unit.ClassTable()
				reg, _ := sensor.Builtins(sensor.DefaultStages)
				c, err := partition.Compile(prog, classes, reg, costmodel.NewExecTime())
				if err != nil {
					b.Fatal(err)
				}
				return c
			}(),
		},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			stats := make(map[int32]costmodel.Stat, tc.c.NumPSEs())
			for id := int32(0); id < int32(tc.c.NumPSEs()); id++ {
				stats[id] = costmodel.Stat{
					Count: 100, Prob: 1, Bytes: float64(1000 + id),
					ModWork: float64(100 * id), DemodWork: float64(100 * (int32(tc.c.NumPSEs()) - id)),
				}
			}
			unit := reconfig.NewUnit(tc.c, costmodel.DefaultEnvironment())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := unit.SelectPlan(stats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRelayProcess measures re-partitioning a continuation at an
// intermediate party (the §7 relay extension): restore, run three stages,
// re-split.
func BenchmarkRelayProcess(b *testing.B) {
	const stages = 8
	unit := sensor.HandlerUnit(stages)
	prog, _ := unit.Program(sensor.HandlerName)
	classes, _ := unit.ClassTable()
	oracle, _ := sensor.Builtins(stages)
	c, err := partition.Compile(prog, classes, oracle, costmodel.NewExecTime())
	if err != nil {
		b.Fatal(err)
	}
	stagePSE := func(k int) int32 {
		for id := int32(1); id < int32(c.NumPSEs()); id++ {
			p, _ := c.PSE(id)
			if p.Edge.From == 3+k && p.Edge.To == 4+k && len(p.Vars) > 0 {
				return id
			}
		}
		b.Fatalf("no PSE after stage %d", k)
		return -1
	}
	var filter int32 = -1
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		p, _ := c.PSE(id)
		if len(p.Vars) == 0 {
			filter = id
		}
	}
	mkEnv := func() *interp.Env {
		reg, _ := sensor.Builtins(stages)
		return interp.NewEnv(classes, reg)
	}
	mod := partition.NewModulator(c, mkEnv())
	mp, _ := partition.NewPlan(c.NumPSEs(), 1, []int32{stagePSE(2), filter}, nil)
	mod.SetPlan(mp)
	relay := partition.NewRelay(c, mkEnv())
	rp, _ := partition.NewPlan(c.NumPSEs(), 1, []int32{stagePSE(5), filter}, nil)
	relay.SetPlan(rp)

	out, err := mod.Process(sensor.NewFrame(1, 512))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relay.Process(out.Cont); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures the full static-analysis pipeline.
func BenchmarkCompile(b *testing.B) {
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, _ := u.ClassTable()
	reg, _ := testprog.PushBuiltins()
	model := costmodel.NewDataSize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.Compile(prog, classes, reg, model); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfilingOverhead compares modulation with profiling flags off
// and on — the conditional-profiling design of §2.5.
func BenchmarkProfilingOverhead(b *testing.B) {
	for _, profiled := range []bool{false, true} {
		name := "off"
		if profiled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			c := compilePush(b, costmodel.NewDataSize())
			reg, _ := testprog.PushBuiltins()
			mod := partition.NewModulator(c, methodpart.NewEnv(c, reg))
			var profile []int32
			if profiled {
				profile = partition.AllProfileIDs(c)
			}
			coll := profileunit.NewCollector(c.NumPSEs())
			mod.Probe = coll
			p, err := partition.NewPlan(c.NumPSEs(), 1, []int32{1, 3}, profile)
			if err != nil {
				b.Fatal(err)
			}
			mod.SetPlan(p)
			ev := testprog.NewImageData(64, 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mod.Process(ev); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
