package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/asm"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/wire"
)

// replayed holds the layer timings measured by replaying a run's events,
// plan and profile snapshots through the layers' public functions, one
// call at a time, outside the live channel.
type replayed struct {
	compileNS              int64
	modNS, demodNS         int64 // p50
	marshalNS, unmarshalNS int64 // p50
	contBytes              float64
	interpOverheadNS       float64 // per event
	selectNS, mergeNS      int64   // p50
	frontSize              float64
}

const (
	compileReps   = 30
	replayEvents  = 256
	replayPasses  = 3
	selectionReps = 10
)

type nativeSet map[string]bool

func (s nativeSet) IsNative(fn string) bool { return s[fn] }

func compileHandler(w *workload) (*partition.Compiled, error) {
	unit, err := asm.Parse(w.source)
	if err != nil {
		return nil, err
	}
	prog, ok := unit.Program(w.handler)
	if !ok {
		return nil, fmt.Errorf("handler %q not in source", w.handler)
	}
	classes, err := unit.ClassTable()
	if err != nil {
		return nil, err
	}
	model, err := costmodel.ByName(costmodel.DataSizeName)
	if err != nil {
		return nil, err
	}
	return partition.Compile(prog, classes, nativeSet{"displayImage": true}, model)
}

// settledSplits returns, for each size class, the split PSE the data-size
// model should settle on: the one at which the message shipped for the
// class's first frame is smallest, found by modulating that frame under
// every valid cut. It is worked out apart from the stack's own plan
// selection, so adapt_lag_events can tell a stack that never adapts from
// one that adapts at once.
func settledSplits(w *workload, pool [][]*mir.Object) ([]int32, error) {
	compiled, err := compileHandler(w)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	n := compiled.NumPSEs()
	if n > 16 {
		return nil, fmt.Errorf("%d PSEs are too many cuts to try", n)
	}
	env := interp.NewEnv(compiled.Classes, registry(nil, nil))
	var want []int32
	for _, frames := range pool {
		best, tie := int64(-1), false
		var split int32
		for set := 1; set < 1<<n; set++ {
			var ids []int32
			for id := 0; id < n; id++ {
				if set>>id&1 == 1 {
					ids = append(ids, int32(id))
				}
			}
			if compiled.ValidateSplitSet(ids) != nil {
				continue
			}
			plan, err := partition.NewPlan(n, 1, ids, nil)
			if err != nil {
				return nil, err
			}
			mod := partition.NewModulator(compiled, env)
			mod.SetPlan(plan)
			o, err := mod.Process(frames[0])
			if err != nil {
				return nil, fmt.Errorf("modulate under cut %v: %w", ids, err)
			}
			switch {
			case best < 0 || o.WireBytes < best:
				best, split, tie = o.WireBytes, o.SplitPSE, false
			case o.WireBytes == best && o.SplitPSE != split:
				tie = true
			}
		}
		if tie {
			return nil, fmt.Errorf("two split PSEs ship %d bytes; no single split to settle on", best)
		}
		want = append(want, split)
	}
	return want, nil
}

// replay times each layer on the traced channel's last events under its
// final plan, and plan selection and profile merging on its snapshots.
func replay(w *workload, in *inputs, split []int32, next int, snaps []map[int32]costmodel.Stat) (*replayed, error) {
	out := &replayed{}
	var compiled *partition.Compiled
	var compileNS []int64
	for i := 0; i < compileReps; i++ {
		start := time.Now()
		c, err := compileHandler(w)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		compileNS = append(compileNS, int64(time.Since(start)))
		compiled = c
	}
	out.compileNS = median(compileNS)

	first := next - replayEvents
	if in.ends != nil {
		// Only the last phase's events ran under the final plan.
		if s := in.phaseStart(in.phase(next - 1)); s > first {
			first = s
		}
	}
	if first < 0 {
		first = 0
	}
	plan, err := partition.NewPlan(compiled.NumPSEs(), 1, split, nil)
	if err != nil {
		return nil, fmt.Errorf("replay plan %v: %w", split, err)
	}
	var sendBusy, recvBusy atomic.Int64
	mod := partition.NewModulator(compiled, interp.NewEnv(compiled.Classes, registry(nil, &sendBusy)))
	mod.SetPlan(plan)
	var mods, demods, marshals, unmarshals []int64
	var bytes, totalNS int64
	for pass := 0; pass < replayPasses; pass++ {
		snk := newSink(in, 0, first)
		demod := partition.NewDemodulator(compiled, interp.NewEnv(compiled.Classes, registry(snk, &recvBusy)))
		for k := first; k < next; k++ {
			ev, _ := in.event(k)
			t0 := time.Now()
			o, err := mod.Process(ev)
			t1 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("modulate event %d: %w", k, err)
			}
			var msg any = o.Raw
			if o.Cont != nil {
				msg = o.Cont
			}
			frame, err := wire.MarshalFrame(msg)
			t2 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("marshal event %d: %w", k, err)
			}
			data := append([]byte(nil), frame.Bytes()...)
			frame.Release()
			t3 := time.Now()
			decoded, err := wire.Unmarshal(data)
			t4 := time.Now()
			if err != nil {
				return nil, fmt.Errorf("unmarshal event %d: %w", k, err)
			}
			if _, err := demod.Process(decoded); err != nil {
				return nil, fmt.Errorf("demodulate event %d: %w", k, err)
			}
			t5 := time.Now()
			mods = append(mods, int64(t1.Sub(t0)))
			marshals = append(marshals, int64(t2.Sub(t1)))
			unmarshals = append(unmarshals, int64(t4.Sub(t3)))
			demods = append(demods, int64(t5.Sub(t4)))
			totalNS += int64(t1.Sub(t0)) + int64(t5.Sub(t4))
			bytes += int64(len(data))
		}
		if err := snk.err(); err != nil {
			return nil, fmt.Errorf("replay output: %w", err)
		}
	}
	n := int64(len(mods))
	out.modNS, out.demodNS = median(mods), median(demods)
	out.marshalNS, out.unmarshalNS = median(marshals), median(unmarshals)
	out.contBytes = float64(bytes) / float64(n)
	out.interpOverheadNS = float64(totalNS-sendBusy.Load()-recvBusy.Load()) / float64(n)

	var selects, merges []int64
	var fronts []float64
	for _, snap := range snaps {
		for i := 0; i < selectionReps; i++ {
			unit := reconfig.NewUnit(compiled, costmodel.DefaultEnvironment())
			start := time.Now()
			if _, _, err := unit.SelectPlan(snap); err != nil {
				return nil, fmt.Errorf("select plan: %w", err)
			}
			selects = append(selects, int64(time.Since(start)))
			if i == 0 {
				fronts = append(fronts, float64(len(unit.LastExplanation().Front)))
			}
			start = time.Now()
			profileunit.Merge(snap, snap)
			merges = append(merges, int64(time.Since(start)))
		}
	}
	out.selectNS, out.mergeNS = median(selects), median(merges)
	out.frontSize = medianFloat(fronts)
	return out, nil
}
