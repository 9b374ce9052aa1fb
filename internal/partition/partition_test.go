package partition_test

import (
	"errors"
	"strings"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/testprog"
	"methodpart/internal/wire"
)

// fixture bundles a compiled push() handler with sender/receiver halves.
type fixture struct {
	c         *partition.Compiled
	mod       *partition.Modulator
	demod     *partition.Demodulator
	displayed *[]*mir.Object
}

func newFixture(t *testing.T, model costmodel.Model) *fixture {
	t.Helper()
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, err := u.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	recvReg, displayed := testprog.PushBuiltins()
	c, err := partition.Compile(prog, classes, recvReg, model)
	if err != nil {
		t.Fatal(err)
	}
	// Sender side gets the movable builtins but must never execute the
	// native display; reuse a registry with both for simplicity (the
	// analysis guarantees displayImage stays at the receiver).
	sendReg, _ := testprog.PushBuiltins()
	senderEnv := interp.NewEnv(classes, sendReg)
	recvEnv := interp.NewEnv(classes, recvReg)
	return &fixture{
		c:         c,
		mod:       partition.NewModulator(c, senderEnv),
		demod:     partition.NewDemodulator(c, recvEnv),
		displayed: displayed,
	}
}

func (f *fixture) deliver(t *testing.T, ev mir.Value) (*partition.Output, *partition.Result) {
	t.Helper()
	out, err := f.mod.Process(ev)
	if err != nil {
		t.Fatal(err)
	}
	if out.Suppressed {
		return out, nil
	}
	var msg any
	switch {
	case out.Raw != nil:
		// Serialise and deserialise to prove the wire path works.
		data, err := wire.Marshal(out.Raw)
		if err != nil {
			t.Fatal(err)
		}
		msg, err = wire.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
	case out.Cont != nil:
		data, err := wire.Marshal(out.Cont)
		if err != nil {
			t.Fatal(err)
		}
		msg, err = wire.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatal("modulator produced neither raw nor continuation")
	}
	res, err := f.demod.Process(msg)
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestCompilePushPSETable(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	// Raw PSE + the 3 analysis PSEs.
	if f.c.NumPSEs() != 4 {
		t.Fatalf("NumPSEs = %d, want 4", f.c.NumPSEs())
	}
	raw, ok := f.c.PSE(partition.RawPSEID)
	if !ok || raw.Edge.From != -1 || len(raw.Vars) != 1 || raw.Vars[0] != "event" {
		t.Fatalf("raw PSE = %+v", raw)
	}
}

func TestRawPlanDelivery(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	ev := testprog.NewImageData(8, 8)
	out, res := f.deliver(t, ev)
	if out.SplitPSE != partition.RawPSEID {
		t.Fatalf("split = %d, want raw", out.SplitPSE)
	}
	if out.ModWork != 0 {
		t.Fatalf("raw plan did sender work: %d", out.ModWork)
	}
	if len(*f.displayed) != 1 {
		t.Fatalf("displayed %d images", len(*f.displayed))
	}
	got := (*f.displayed)[0]
	if got.Fields["width"] != mir.Int(100) {
		t.Errorf("displayed width = %v, want 100 (resized)", got.Fields["width"])
	}
	if res.DemodWork == 0 {
		t.Error("raw plan should do all work at receiver")
	}
}

// TestAllPlansEquivalent delivers the same event under every single-PSE
// plan and checks the receiver-visible result is identical — the core
// remote-continuation correctness property.
func TestAllPlansEquivalent(t *testing.T) {
	for id := int32(1); id <= 2; id++ { // PSEs on the transform path
		f := newFixture(t, costmodel.NewDataSize())
		pse, ok := f.c.PSE(id)
		if !ok {
			t.Fatalf("PSE %d missing", id)
		}
		// A single split flag is only a valid plan if it cuts all paths;
		// combine with the filter-path PSE when needed.
		split := []int32{id}
		if err := f.c.ValidateSplitSet(split); err != nil {
			for other := int32(1); other < int32(f.c.NumPSEs()); other++ {
				if other == id {
					continue
				}
				try := append([]int32{id}, other)
				if f.c.ValidateSplitSet(try) == nil {
					split = try
					break
				}
			}
		}
		plan, err := partition.NewPlan(f.c.NumPSEs(), 1, split, nil)
		if err != nil {
			t.Fatal(err)
		}
		f.mod.SetPlan(plan)

		ev := testprog.NewImageData(16, 16)
		out, _ := f.deliver(t, ev)
		if out.SplitPSE == partition.RawPSEID {
			t.Fatalf("PSE %d (%v): modulator fell back to raw", id, pse.Edge)
		}
		if len(*f.displayed) != 1 {
			t.Fatalf("PSE %d: displayed %d images", id, len(*f.displayed))
		}
		got := (*f.displayed)[0]
		if got.Fields["width"] != mir.Int(100) || got.Fields["height"] != mir.Int(100) {
			t.Errorf("PSE %d: displayed %vx%v, want 100x100", id, got.Fields["width"], got.Fields["height"])
		}
	}
}

func TestFilterSuppression(t *testing.T) {
	// A non-ImageData event under a post-filter plan must be dropped at
	// the sender: the paper's "events that are not of type ImageData will
	// be filtered out".
	f := newFixture(t, costmodel.NewDataSize())
	// Find the filter-path PSE (Edge(1,7)) and a transform-path PSE.
	var filterID, otherID int32 = -1, -1
	for id := int32(1); id < int32(f.c.NumPSEs()); id++ {
		pse, _ := f.c.PSE(id)
		if pse.Edge.From == 1 && pse.Edge.To == 7 {
			filterID = id
		} else if otherID < 0 {
			otherID = id
		}
	}
	if filterID < 0 || otherID < 0 {
		t.Fatalf("PSE layout unexpected: %+v", f.c.PSEs)
	}
	plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{filterID, otherID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.c.ValidateSplitSet(plan.SplitIDs()); err != nil {
		t.Fatal(err)
	}
	f.mod.SetPlan(plan)

	out, err := f.mod.Process(mir.Str("not an image"))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Suppressed {
		t.Fatalf("non-image event not suppressed: %+v", out)
	}
	if out.WireBytes != 0 {
		t.Errorf("suppressed message still cost %d bytes", out.WireBytes)
	}
}

func TestForcedSplitUnderDegeneratePlan(t *testing.T) {
	// A plan that flags only the filter-path PSE leaks the transform
	// path; the modulator must force-split before the native call rather
	// than execute it at the sender.
	f := newFixture(t, costmodel.NewDataSize())
	var filterID int32 = -1
	for id := int32(1); id < int32(f.c.NumPSEs()); id++ {
		pse, _ := f.c.PSE(id)
		if pse.Edge.From == 1 && pse.Edge.To == 7 {
			filterID = id
		}
	}
	plan, err := partition.NewPlan(f.c.NumPSEs(), 1, []int32{filterID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.c.ValidateSplitSet(plan.SplitIDs()); err == nil {
		t.Fatal("degenerate plan validated as complete cut")
	}
	f.mod.SetPlan(plan)

	ev := testprog.NewImageData(4, 4)
	out, res := f.deliver(t, ev)
	if out.Suppressed {
		t.Fatal("image event suppressed")
	}
	if len(*f.displayed) != 1 {
		t.Fatalf("displayed = %d", len(*f.displayed))
	}
	_ = res
}

func TestPlanVersioningIgnoresStale(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	p2, _ := partition.NewPlan(f.c.NumPSEs(), 2, []int32{partition.RawPSEID}, nil)
	p1, _ := partition.NewPlan(f.c.NumPSEs(), 1, []int32{1}, nil)
	if !f.mod.SetPlan(p2) {
		t.Fatal("fresh plan rejected")
	}
	if f.mod.SetPlan(p1) {
		t.Fatal("stale plan accepted")
	}
	if f.mod.Plan().Version() != 2 {
		t.Fatalf("active version = %d", f.mod.Plan().Version())
	}
}

func TestApplyWirePlan(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	wp := &wire.Plan{Handler: "push", Version: 5, Split: []int32{partition.RawPSEID}, Profile: []int32{0, 1}}
	if err := f.mod.ApplyWirePlan(wp); err != nil {
		t.Fatal(err)
	}
	if f.mod.Plan().Version() != 5 {
		t.Fatalf("version = %d", f.mod.Plan().Version())
	}
	bad := &wire.Plan{Handler: "other", Version: 6}
	if err := f.mod.ApplyWirePlan(bad); err == nil {
		t.Error("plan for wrong handler accepted")
	}
	leaky := &wire.Plan{Handler: "push", Version: 7, Split: nil}
	if err := f.mod.ApplyWirePlan(leaky); err == nil {
		t.Error("leaky plan accepted")
	}
	stale := &wire.Plan{Handler: "push", Version: 4, Split: []int32{partition.RawPSEID}, Profile: []int32{0}}
	err := f.mod.ApplyWirePlan(stale)
	if !errors.Is(err, partition.ErrStalePlan) {
		t.Errorf("stale plan: err = %v, want ErrStalePlan", err)
	}
	if f.mod.Plan().Version() != 5 {
		t.Fatalf("stale plan changed active version to %d", f.mod.Plan().Version())
	}
}

func TestValidateSplitSet(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	if err := f.c.ValidateSplitSet([]int32{partition.RawPSEID}); err != nil {
		t.Errorf("raw plan invalid: %v", err)
	}
	if err := f.c.ValidateSplitSet([]int32{99}); err == nil {
		t.Error("unknown PSE accepted")
	}
	if err := f.c.ValidateSplitSet(nil); err == nil {
		t.Error("empty split set accepted")
	}
}

// TestDemodulatorRejectsWrongHandler: no frame names its handler — the
// handshake binds a connection to one compiled handler — so a frame meant
// for another handler shows up as a class index, PSE or slot count this
// handler's layout lacks, and fails classified instead of running.
func TestDemodulatorRejectsWrongHandler(t *testing.T) {
	f := newFixture(t, costmodel.NewDataSize())
	foreign, err := wire.Unmarshal([]byte{byte(wire.MsgRaw), 1, 11 /* tagClass */, 5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.demod.Process(foreign)
	if err == nil || partition.FaultClassOf(err) != wire.NackDecode || !strings.Contains(err.Error(), "class index 5") {
		t.Fatalf("foreign class: err = %v", err)
	}
	_, err = f.demod.ProcessContinuation(&wire.Continuation{PSEID: int32(f.c.NumPSEs())})
	if err == nil || partition.FaultClassOf(err) != wire.NackRestore {
		t.Fatalf("unknown pse: err = %v", err)
	}
	pse, _ := f.c.PSE(1)
	_, err = f.demod.ProcessContinuation(&wire.Continuation{PSEID: 1, Vars: make([]wire.Slot, len(pse.Vars)+2)})
	if err == nil || partition.FaultClassOf(err) != wire.NackRestore {
		t.Fatalf("wrong slot count: err = %v", err)
	}
}

func TestExecTimeModelCompiles(t *testing.T) {
	f := newFixture(t, costmodel.NewExecTime())
	// The exec-time model keeps more PSEs (no static size pruning).
	if f.c.NumPSEs() < 4 {
		t.Fatalf("NumPSEs = %d", f.c.NumPSEs())
	}
	ev := testprog.NewImageData(8, 8)
	out, _ := f.deliver(t, ev)
	if out == nil {
		t.Fatal("no output")
	}
	if len(*f.displayed) != 1 {
		t.Fatalf("displayed = %d", len(*f.displayed))
	}
}
