package profileunit

import (
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/partition"
)

func TestCollectorSnapshotBasics(t *testing.T) {
	c := NewCollector(4)
	c.SetAlpha(1) // latest value wins, for exact assertions
	for i := 0; i < 10; i++ {
		c.Message(1000)
		c.Cross(1, 50, 200)
		if i%2 == 0 {
			c.Cross(2, 80, 400)
		}
		c.SplitAt(1, 50, 200)
		c.Done(1, 50, 150)
	}
	snap := c.Snapshot()

	raw := snap[partition.RawPSEID]
	if raw.Prob != 1 || raw.Bytes != 1000 {
		t.Errorf("raw stat = %+v", raw)
	}
	if raw.DemodWork != 200 { // total work = 50+150
		t.Errorf("raw demod work = %g, want 200", raw.DemodWork)
	}

	s1 := snap[1]
	if s1.Count != 10 || s1.Prob != 1 || s1.Bytes != 200 || s1.ModWork != 50 {
		t.Errorf("pse1 stat = %+v", s1)
	}
	if s1.DemodWork != 150 {
		t.Errorf("pse1 demod = %g, want 150", s1.DemodWork)
	}

	s2 := snap[2]
	if s2.Count != 5 || s2.Prob != 0.5 {
		t.Errorf("pse2 stat = %+v", s2)
	}
	// PSE 2 never split: demod estimated as total - modWork = 200 - 80.
	if s2.DemodWork != 120 {
		t.Errorf("pse2 demod estimate = %g, want 120", s2.DemodWork)
	}

	if _, ok := snap[3]; ok {
		t.Error("uncrossed PSE appears in snapshot")
	}
}

func TestCollectorReceiverOnlyDenominator(t *testing.T) {
	// A receiver-side collector sees Done and Cross but never Message;
	// probabilities must still use the completed count.
	c := NewCollector(3)
	for i := 0; i < 8; i++ {
		c.Cross(1, 10, 500)
		c.Done(partition.RawPSEID, 0, 100)
	}
	snap := c.Snapshot()
	if got := snap[1].Prob; got != 1 {
		t.Errorf("receiver-side prob = %g, want 1", got)
	}
	// The raw entry carries the receiver's total-work view but no byte
	// size (filled in from the sender side by Merge).
	raw, ok := snap[partition.RawPSEID]
	if !ok {
		t.Fatal("receiver-side collector emitted no raw entry")
	}
	if raw.Bytes != 0 || raw.DemodWork != 100 {
		t.Errorf("raw entry = %+v, want Bytes 0 / DemodWork 100", raw)
	}

	// A collector that observed nothing emits no raw entry at all.
	empty := NewCollector(3)
	if _, ok := empty.Snapshot()[partition.RawPSEID]; ok {
		t.Error("empty collector fabricated a raw entry")
	}
}

func TestCollectorToFromWire(t *testing.T) {
	c := NewCollector(3)
	c.Message(500)
	c.Cross(1, 25, 100)
	c.Done(1, 25, 75)
	fb := c.ToWire("push")
	if fb.Handler != "push" || len(fb.Stats) == 0 {
		t.Fatalf("feedback = %+v", fb)
	}
	stats := FromWire(fb)
	if stats[1].Bytes != 100 {
		t.Errorf("round-tripped bytes = %g", stats[1].Bytes)
	}
}

func TestMergePrefersFresherSide(t *testing.T) {
	sender := map[int32]costmodel.Stat{
		1: {Count: 100, Bytes: 4000, ModWork: 10},
		2: {Count: 3, Bytes: 9999, ModWork: 5}, // stale
	}
	receiver := map[int32]costmodel.Stat{
		2: {Count: 90, Bytes: 1000, ModWork: 7},
		3: {Count: 90, Bytes: 50},
	}
	m := Merge(sender, receiver)
	if m[1].Bytes != 4000 {
		t.Errorf("pse1 = %+v", m[1])
	}
	if m[2].Bytes != 1000 {
		t.Errorf("pse2 should take the fresher receiver view: %+v", m[2])
	}
	if m[3].Bytes != 50 {
		t.Errorf("receiver-only pse3 missing: %+v", m[3])
	}
	// Stale receiver view must not clobber fresh sender stats, but its
	// demod observation should.
	sender2 := map[int32]costmodel.Stat{1: {Count: 100, Bytes: 4000}}
	receiver2 := map[int32]costmodel.Stat{1: {Count: 10, Bytes: 1, DemodWork: 42}}
	m2 := Merge(sender2, receiver2)
	if m2[1].Bytes != 4000 || m2[1].DemodWork != 42 {
		t.Errorf("merge = %+v", m2[1])
	}
}

func TestRateTrigger(t *testing.T) {
	tr := &RateTrigger{EveryMessages: 5}
	fired := 0
	for m := uint64(1); m <= 20; m++ {
		if tr.ShouldReport(nil, m) {
			fired++
		}
	}
	if fired != 4 {
		t.Errorf("fired %d times, want 4", fired)
	}
}

func TestDiffTrigger(t *testing.T) {
	tr := &DiffTrigger{Threshold: 0.2, MinMessages: 1}
	base := map[int32]costmodel.Stat{1: {Bytes: 100, Prob: 1}}
	if !tr.ShouldReport(base, 1) {
		t.Error("first snapshot should report")
	}
	same := map[int32]costmodel.Stat{1: {Bytes: 105, Prob: 1}}
	if tr.ShouldReport(same, 2) {
		t.Error("5% change fired a 20% trigger")
	}
	big := map[int32]costmodel.Stat{1: {Bytes: 200, Prob: 1}}
	if !tr.ShouldReport(big, 3) {
		t.Error("100% change did not fire")
	}
	// After firing, the baseline resets.
	if tr.ShouldReport(big, 4) {
		t.Error("re-fired without further change")
	}
	newPSE := map[int32]costmodel.Stat{1: {Bytes: 200, Prob: 1}, 2: {Bytes: 1}}
	if !tr.ShouldReport(newPSE, 5) {
		t.Error("newly profiled PSE did not fire")
	}
}

func TestDiffTriggerMinMessages(t *testing.T) {
	tr := &DiffTrigger{Threshold: 0.2, MinMessages: 10}
	if tr.ShouldReport(map[int32]costmodel.Stat{1: {Bytes: 1}}, 5) {
		t.Error("fired before MinMessages")
	}
}

func TestTimeTrigger(t *testing.T) {
	now := time.Unix(0, 0)
	tr := &TimeTrigger{Every: time.Second, Now: func() time.Time { return now }}
	if tr.ShouldReport(nil, 1) {
		t.Error("fired on first observation")
	}
	now = now.Add(500 * time.Millisecond)
	if tr.ShouldReport(nil, 2) {
		t.Error("fired before period elapsed")
	}
	now = now.Add(600 * time.Millisecond)
	if !tr.ShouldReport(nil, 3) {
		t.Error("did not fire after period elapsed")
	}
	if tr.ShouldReport(nil, 4) {
		t.Error("re-fired without further elapse")
	}
}

func TestEitherTrigger(t *testing.T) {
	tr := &EitherTrigger{Children: []Trigger{
		&RateTrigger{EveryMessages: 100},
		&DiffTrigger{Threshold: 0.5, MinMessages: 1},
	}}
	if !tr.ShouldReport(map[int32]costmodel.Stat{1: {Bytes: 10}}, 1) {
		t.Error("diff child should fire on first snapshot")
	}
	if tr.ShouldReport(map[int32]costmodel.Stat{1: {Bytes: 10}}, 2) {
		t.Error("neither child should fire")
	}
}

// TestSplitAtKeepsUnprofiledEdgeFresh is the regression test for SplitAt
// dropping its modWork/contBytes arguments: when the active split edge is
// not profiled (or not sampled), Cross never fires for it, and the split
// observation is the only profiling that edge gets. Its stats must keep
// moving, not freeze at whatever profiling saw before the split flipped.
func TestSplitAtKeepsUnprofiledEdgeFresh(t *testing.T) {
	c := NewCollector(4)
	c.SetAlpha(1) // latest value wins, for exact assertions
	for i := 0; i < 10; i++ {
		c.Message(1000)
		c.SplitAt(2, 70, int64(300+i))
	}
	s2, ok := c.Snapshot()[2]
	if !ok {
		t.Fatal("split-only edge missing from snapshot: SplitAt dropped its observations")
	}
	if s2.Count != 10 {
		t.Errorf("split-only edge count = %d, want 10", s2.Count)
	}
	if s2.Bytes != 309 {
		t.Errorf("split-only edge bytes = %g, want 309 (latest observation)", s2.Bytes)
	}
	if s2.ModWork != 70 {
		t.Errorf("split-only edge modWork = %g, want 70", s2.ModWork)
	}
	if s2.Prob != 1 {
		t.Errorf("split-only edge prob = %g, want 1", s2.Prob)
	}
}

// TestSplitAtSkipsWhenCrossObserves: on a profiled, sampled message Cross
// already observed the split edge; SplitAt must count the split but not
// observe the same message twice.
func TestSplitAtSkipsWhenCrossObserves(t *testing.T) {
	c := NewCollector(4)
	c.SetAlpha(1)
	for i := 0; i < 10; i++ {
		c.Message(1000)
		c.Cross(1, 50, 200)
		c.SplitAt(1, 999, 888) // same message; Cross saw it already
	}
	s1 := c.Snapshot()[1]
	if s1.Count != 10 {
		t.Errorf("count = %d, want 10 (one per message, not per probe)", s1.Count)
	}
	if s1.Bytes != 200 || s1.ModWork != 50 {
		t.Errorf("stats = %+v, want the Cross observation (200/50)", s1)
	}
}

// TestSplitAtMixedSampling: with Cross firing only on sampled messages,
// every message is still observed exactly once — by Cross when sampled, by
// SplitAt otherwise.
func TestSplitAtMixedSampling(t *testing.T) {
	c := NewCollector(4)
	c.SetAlpha(1)
	for i := 0; i < 10; i++ {
		c.Message(1000)
		if i%2 == 0 {
			c.Cross(1, 50, 200)
		}
		c.SplitAt(1, 60, 210)
	}
	s1 := c.Snapshot()[1]
	if s1.Count != 10 {
		t.Errorf("count = %d, want 10 under 50%% sampling", s1.Count)
	}
	if s1.Prob != 1 {
		t.Errorf("prob = %g, want 1", s1.Prob)
	}
}

// TestMergeEqualCountsPreferReceiver: on an observation-count tie the
// receiver's view is the base — it is the side that decides.
func TestMergeEqualCountsPreferReceiver(t *testing.T) {
	sender := map[int32]costmodel.Stat{1: {Count: 5, Bytes: 10, ModWork: 3}}
	receiver := map[int32]costmodel.Stat{1: {Count: 5, Bytes: 20, ModWork: 7}}
	m := Merge(sender, receiver)
	if m[1].Bytes != 20 || m[1].ModWork != 7 {
		t.Errorf("tied merge = %+v, want the receiver view (20/7)", m[1])
	}
}

// TestMergeZeroByteFillIn: a fresher view that never observed byte sizes or
// demod work takes both from the stale side rather than zeroing them.
func TestMergeZeroByteFillIn(t *testing.T) {
	sender := map[int32]costmodel.Stat{1: {Count: 3, Bytes: 42, DemodWork: 33}}
	receiver := map[int32]costmodel.Stat{1: {Count: 9}}
	m := Merge(sender, receiver)
	if m[1].Count != 9 {
		t.Errorf("merged count = %d, want the fresher receiver's 9", m[1].Count)
	}
	if m[1].Bytes != 42 {
		t.Errorf("merged bytes = %g, want 42 filled in from the stale sender", m[1].Bytes)
	}
	if m[1].DemodWork != 33 {
		t.Errorf("merged demod = %g, want 33 filled in from the stale sender", m[1].DemodWork)
	}
}

// TestMergeReceiverDemodWorkAlwaysWins: the receiver is the only side that
// ever truly measures demodulator work; its observation beats even a much
// fresher sender estimate.
func TestMergeReceiverDemodWorkAlwaysWins(t *testing.T) {
	sender := map[int32]costmodel.Stat{1: {Count: 100, Bytes: 50, DemodWork: 99}}
	receiver := map[int32]costmodel.Stat{1: {Count: 1, DemodWork: 7}}
	m := Merge(sender, receiver)
	if m[1].DemodWork != 7 {
		t.Errorf("merged demod = %g, want the receiver's 7", m[1].DemodWork)
	}
	if m[1].Bytes != 50 {
		t.Errorf("merged bytes = %g, want the fresher sender's 50", m[1].Bytes)
	}
}

// TestRateTriggerBoundary pins the >= boundary and the zero-period default.
func TestRateTriggerBoundary(t *testing.T) {
	tr := &RateTrigger{EveryMessages: 3}
	want := map[uint64]bool{1: false, 2: false, 3: true, 4: false, 5: false, 6: true}
	for m := uint64(1); m <= 6; m++ {
		if got := tr.ShouldReport(nil, m); got != want[m] {
			t.Errorf("message %d: fired=%v, want %v", m, got, want[m])
		}
	}
	every := &RateTrigger{} // period 0 means every message
	for m := uint64(1); m <= 3; m++ {
		if !every.ShouldReport(nil, m) {
			t.Errorf("zero-period trigger idle at message %d", m)
		}
	}
}

// TestTimeTriggerBoundary: the first call only latches the clock, the
// period boundary itself fires (>=), and a non-positive period defaults to
// one second.
func TestTimeTriggerBoundary(t *testing.T) {
	now := time.Unix(100, 0)
	tr := &TimeTrigger{Every: time.Second, Now: func() time.Time { return now }}
	if tr.ShouldReport(nil, 1) {
		t.Error("first call fired instead of latching")
	}
	now = now.Add(time.Second) // exactly the period
	if !tr.ShouldReport(nil, 2) {
		t.Error("exact period boundary did not fire")
	}
	if tr.ShouldReport(nil, 3) {
		t.Error("re-fired with no time elapsed")
	}

	now = time.Unix(200, 0)
	def := &TimeTrigger{Now: func() time.Time { return now }} // Every 0 -> 1s
	def.ShouldReport(nil, 1)
	now = now.Add(999 * time.Millisecond)
	if def.ShouldReport(nil, 2) {
		t.Error("default-period trigger fired before one second")
	}
	now = now.Add(time.Millisecond)
	if !def.ShouldReport(nil, 3) {
		t.Error("default-period trigger idle at one second")
	}
}

// TestRateTriggerFallingCount feeds the count a publisher-side subscription
// sees when it migrates into a younger plan class: the class collector's
// message count drops below the last report. The trigger must rebase and
// keep its period, not read the uint64 difference as a huge gap and fire.
func TestRateTriggerFallingCount(t *testing.T) {
	tr := &RateTrigger{EveryMessages: 10}
	if !tr.ShouldReport(nil, 500) {
		t.Fatal("first period did not fire")
	}
	for _, m := range []uint64{3, 4, 12} {
		if tr.ShouldReport(nil, m) {
			t.Fatalf("fired at count %d after the count fell from 500 to 3", m)
		}
	}
	if !tr.ShouldReport(nil, 13) {
		t.Error("did not fire one period after the rebase at 3")
	}
	if tr.ShouldReport(nil, 0) {
		t.Error("fired when the count fell to 0")
	}
}

// TestDiffTriggerCopiesBaseline reuses one snapshot map across calls, as the
// subscriber's per-message merge does: the trigger must keep its own copy of
// the reported baseline, or rewriting the map would move the baseline with
// it and a large change would never fire.
func TestDiffTriggerCopiesBaseline(t *testing.T) {
	tr := &DiffTrigger{Threshold: 0.2, MinMessages: 1}
	snap := map[int32]costmodel.Stat{1: {Bytes: 100, Prob: 1}}
	if !tr.ShouldReport(snap, 1) {
		t.Fatal("first snapshot should report")
	}
	snap[1] = costmodel.Stat{Bytes: 300, Prob: 1}
	if !tr.ShouldReport(snap, 2) {
		t.Error("200% change in a reused map did not fire")
	}
	if tr.ShouldReport(snap, 3) {
		t.Error("re-fired without further change")
	}
}

// TestIntoVariantsMatchAndReuse checks SnapshotInto and MergeInto produce
// exactly what Snapshot and Merge do, clear stale entries from the reused
// map, and allocate nothing once warm.
func TestIntoVariantsMatchAndReuse(t *testing.T) {
	c := NewCollector(4)
	c.Message(1000)
	c.Cross(1, 10, 400)
	c.Cross(2, 20, 200)
	c.Done(2, 20, 30)
	sender := map[int32]costmodel.Stat{1: {Count: 7, Bytes: 500}, 3: {Count: 2, Bytes: 9}}

	snap := map[int32]costmodel.Stat{99: {Count: 1}}
	merged := map[int32]costmodel.Stat{98: {Count: 1}}
	snap = c.SnapshotInto(snap)
	merged = MergeInto(merged, sender, snap)
	wantSnap := c.Snapshot()
	wantMerged := Merge(sender, wantSnap)
	for _, tc := range []struct {
		name      string
		got, want map[int32]costmodel.Stat
	}{{"snapshot", snap, wantSnap}, {"merge", merged, wantMerged}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: %d entries, want %d: %v", tc.name, len(tc.got), len(tc.want), tc.got)
		}
		for id, st := range tc.want {
			if tc.got[id] != st {
				t.Errorf("%s[%d] = %+v, want %+v", tc.name, id, tc.got[id], st)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		snap = c.SnapshotInto(snap)
		merged = MergeInto(merged, sender, snap)
	}); allocs != 0 {
		t.Errorf("warm SnapshotInto+MergeInto allocated %.1f times per run, want 0", allocs)
	}
}
