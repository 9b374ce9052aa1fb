package jecho

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/reconfig"
	"methodpart/internal/sensor"
	"methodpart/internal/testprog"
	"methodpart/internal/transport"
)

// fallbackFixtures compiles the handlers the fallback rule is checked on:
// the two image handlers, the sensor handler and random programs of seeds
// 1–200.
func fallbackFixtures(t *testing.T) map[string]*partition.Compiled {
	t.Helper()
	out := map[string]*partition.Compiled{}
	compileUnit := func(name string, u *asm.Unit, handler string, reg *interp.Registry, model costmodel.Model) {
		prog, _ := u.Program(handler)
		classes, err := u.ClassTable()
		if err != nil {
			t.Fatal(err)
		}
		c, err := partition.Compile(prog, classes, reg, model)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		out[name] = c
	}
	imgReg, _ := imaging.Builtins()
	compileUnit("show", imaging.HandlerUnit(100), imaging.HandlerName, imgReg, costmodel.NewDataSize())
	compileUnit("showRich", imaging.RichHandlerUnit(100), imaging.RichHandlerName, imgReg, costmodel.NewDataSize())
	sensorReg, _ := sensor.Builtins(sensor.DefaultStages)
	compileUnit("sensor", sensor.HandlerUnit(sensor.DefaultStages), sensor.HandlerName, sensorReg, costmodel.NewExecTime())
	sinkReg, _ := testprog.SinkRegistry()
	for seed := int64(1); seed <= 200; seed++ {
		c, err := partition.Compile(testprog.RandomProgram(seed), nil, sinkReg, costmodel.NewDataSize())
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		out[fmt.Sprintf("seed %d", seed)] = c
	}
	return out
}

// TestDegradeFallbackScansCutTable checks the breaker fallback rule on
// every fixture, for each single open PSE and for random open sets: the
// chosen cut is valid, crosses no open PSE and is the last such cut in
// table order. When every non-raw cut is blocked the choice is raw, also
// when raw itself is open. The open sets come from a real breaker, as in
// degrade.
func TestDegradeFallbackScansCutTable(t *testing.T) {
	checked := 0
	for name, c := range fallbackFixtures(t) {
		tbl := c.CutTable(reconfig.DefaultMaxCandidates)
		check := func(what string, trip []int32, wantRaw bool) {
			t.Helper()
			b, _ := testBreaker(1, time.Hour, time.Hour)
			for _, id := range trip {
				b.Fail(id)
			}
			open := b.OpenIDs()
			isOpen := map[int32]bool{}
			for _, id := range open {
				isOpen[id] = true
			}
			blocked := func(cut []int32) bool {
				for _, id := range cut {
					if isOpen[id] {
						return true
					}
				}
				return false
			}
			// The reference scans forward, checks validity from scratch and
			// keeps the last qualifying non-raw cut.
			want := 0
			for i := 1; i < len(tbl.Cuts); i++ {
				if c.ValidateSplitSet(tbl.Cuts[i]) == nil && !blocked(tbl.Cuts[i]) {
					want = i
				}
			}
			got := fallbackCut(tbl, b)
			checked++
			switch {
			case got != want:
				t.Fatalf("%s, %s (open %v): fallback cut %d %v, want %d %v",
					name, what, open, got, tbl.Cuts[got], want, tbl.Cuts[want])
			case wantRaw && got != 0:
				t.Fatalf("%s, %s (open %v): fallback cut %d %v, want raw", name, what, open, got, tbl.Cuts[got])
			case got != 0 && (!tbl.Valid(got) || blocked(tbl.Cuts[got])):
				t.Fatalf("%s, %s (open %v): fallback cut %v is invalid or blocked", name, what, open, tbl.Cuts[got])
			}
		}

		n := int32(c.NumPSEs())
		for id := int32(0); id < n; id++ {
			check(fmt.Sprintf("pse %d open", id), []int32{id}, false)
		}
		rng := rand.New(rand.NewSource(int64(n)*7919 + int64(len(tbl.Cuts))))
		for k := 0; k < 20; k++ {
			var trip []int32
			for id := int32(0); id < n; id++ {
				if rng.Intn(4) == 0 {
					trip = append(trip, id)
				}
			}
			check(fmt.Sprintf("random set %d", k), trip, false)
		}
		// One non-raw PSE of every non-raw cut blocks them all.
		var blockAll []int32
		for _, cut := range tbl.Cuts[1:] {
			for _, id := range cut {
				if id != partition.RawPSEID {
					blockAll = append(blockAll, id)
					break
				}
			}
		}
		check("every non-raw cut blocked", blockAll, true)
		check("every non-raw cut and raw blocked", append(blockAll, partition.RawPSEID), true)
	}
	t.Logf("%d fallback choices agreed", checked)
}

// TestDegradeInstallsFallbackCut drives degrade on a live subscription:
// the installed plan is the table's fallback cut under the next version,
// profiling every PSE.
func TestDegradeInstallsFallbackCut(t *testing.T) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		BreakerThreshold:  1,
		BreakerCooldown:   time.Hour,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	dialLite(t, mem, pub.Addr(), "degraded")
	waitFor(t, "registration", func() bool { return pub.Subscribers() == 1 && pub.PlanClasses() == 1 })
	s := soleSubscription(t, pub)
	tbl := s.compiled.CutTable(reconfig.DefaultMaxCandidates)
	last := tbl.Cuts[len(tbl.Cuts)-1]

	for _, trip := range [][]int32{{last[0]}, {partition.RawPSEID}} {
		s.breaker.Fail(trip[0])
		want := tbl.Cuts[fallbackCut(tbl, s.breaker)]
		v0 := s.planVersion.Load()
		pub.degrade(s)
		info := pub.Subscriptions()[0]
		if info.PlanVersion != v0+1 {
			t.Errorf("after tripping %v: version %d, want %d", trip, info.PlanVersion, v0+1)
		}
		if !partition.EqualCut(info.SplitIDs, want) {
			t.Errorf("after tripping %v: split %v, want fallback cut %v", trip, info.SplitIDs, want)
		}
		if got := s.class.Load().mod.Plan().ProfileIDs(); !slices.Equal(got, partition.AllProfileIDs(s.compiled)) {
			t.Errorf("after tripping %v: degraded plan profiles %v, want every PSE", trip, got)
		}
	}
}
