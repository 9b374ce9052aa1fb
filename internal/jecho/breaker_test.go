package jecho

import (
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/partition"
	"methodpart/internal/reconfig"
	"methodpart/internal/testprog"
)

// testClock is a manually-advanced clock for driving the breaker's
// window/cooldown arithmetic deterministically.
type testClock struct{ t time.Time }

func newTestClock() *testClock               { return &testClock{t: time.Unix(1000, 0)} }
func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(threshold int, window, cooldown time.Duration) (*pseBreaker, *testClock) {
	b := newPSEBreaker(breakerConfig{threshold: threshold, window: window, cooldown: cooldown})
	clk := newTestClock()
	b.now = clk.now
	return b, clk
}

func TestBreakerStateMachine(t *testing.T) {
	b, clk := testBreaker(3, 10*time.Second, 30*time.Second)

	// Closed: failures below the threshold don't trip.
	if b.Fail(1) || b.Fail(1) {
		t.Fatal("tripped below threshold")
	}
	if b.Open(1) {
		t.Fatal("open below threshold")
	}
	// Success clears the window: failures must cluster to trip.
	b.Succeed(1)
	if b.Fail(1) || b.Fail(1) {
		t.Fatal("tripped after Succeed cleared the window")
	}
	// Third consecutive failure trips.
	if !b.Fail(1) {
		t.Fatal("threshold failure did not trip")
	}
	if !b.Open(1) {
		t.Fatal("not open after trip")
	}
	// Failures while open don't re-trip (no cooldown extension).
	if b.Fail(1) {
		t.Fatal("re-tripped while open")
	}
	// Cooldown elapses: half-open re-admission.
	clk.advance(31 * time.Second)
	if b.Open(1) {
		t.Fatal("still open after cooldown")
	}
	// A failure during the probe re-opens immediately.
	if !b.Fail(1) {
		t.Fatal("probe failure did not re-open")
	}
	if !b.Open(1) {
		t.Fatal("not open after failed probe")
	}
	// Second cooldown, successful probe: breaker closes for good.
	clk.advance(31 * time.Second)
	if b.Open(1) {
		t.Fatal("still open after second cooldown")
	}
	b.Succeed(1)
	if b.Open(1) {
		t.Fatal("open after successful probe")
	}
	if b.Fail(1) {
		t.Fatal("single failure tripped a closed breaker")
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b, clk := testBreaker(3, 10*time.Second, 30*time.Second)
	b.Fail(2)
	b.Fail(2)
	// The first two failures age out of the window; the next two don't trip.
	clk.advance(11 * time.Second)
	if b.Fail(2) || b.Fail(2) {
		t.Fatal("stale failures counted toward the threshold")
	}
	if !b.Fail(2) {
		t.Fatal("three in-window failures did not trip")
	}
}

func TestBreakerFailN(t *testing.T) {
	b, _ := testBreaker(3, 10*time.Second, 30*time.Second)
	// A feedback delta carrying the whole threshold at once trips in one call.
	if !b.FailN(4, 3) {
		t.Fatal("FailN(3) did not trip")
	}
	if b.FailN(4, 0) {
		t.Fatal("FailN(0) tripped")
	}
	b2, _ := testBreaker(3, 10*time.Second, 30*time.Second)
	if b2.FailN(4, 100) != true {
		t.Fatal("large delta did not trip")
	}
}

func TestBreakerFailNClampsDelta(t *testing.T) {
	b, _ := testBreaker(3, 10*time.Second, 30*time.Second)
	// A wire feedback frame can carry an arbitrary (corrupt or malicious)
	// failure-counter delta; FailN must trip without materialising it as
	// stamps. An unclamped loop would allocate ~2^64 entries here.
	done := make(chan bool, 1)
	go func() { done <- b.FailN(7, ^uint64(0)) }()
	select {
	case tripped := <-done:
		if !tripped {
			t.Fatal("huge delta did not trip")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FailN(max uint64) did not return; delta not clamped")
	}
	b.mu.Lock()
	if n := len(b.states[7].stamps); n > b.cfg.threshold {
		t.Fatalf("%d stamps retained, want <= threshold %d", n, b.cfg.threshold)
	}
	b.mu.Unlock()
}

// TestBreakerProbePassesImplicitly: an endpoint with no positive success
// signal (the publisher) must not stay half-open forever — once a probe
// survives a full failure window, the breaker closes and later failures
// count against the normal threshold instead of re-tripping singly.
func TestBreakerProbePassesImplicitly(t *testing.T) {
	b, clk := testBreaker(3, 10*time.Second, 30*time.Second)
	b.Fail(1)
	b.Fail(1)
	if !b.Fail(1) {
		t.Fatal("threshold failure did not trip")
	}
	// Cooldown elapses: half-open probe starts.
	clk.advance(31 * time.Second)
	if b.Open(1) {
		t.Fatal("still open after cooldown")
	}
	// The probe survives a full failure window with no failures.
	clk.advance(11 * time.Second)
	// A single failure now must NOT re-open: the probe passed implicitly,
	// so the breaker is closed and the threshold applies afresh.
	if b.Fail(1) {
		t.Fatal("single post-probe failure re-tripped the breaker")
	}
	if b.Open(1) {
		t.Fatal("open after one post-probe failure")
	}
	// Clustered failures still trip as usual.
	b.Fail(1)
	if !b.Fail(1) {
		t.Fatal("threshold failures after passed probe did not trip")
	}
}

// TestBreakerProbeExpiryViaOpen: the implicit probe pass is also observed
// through Open/OpenIDs polling, not just through the next failure.
func TestBreakerProbeExpiryViaOpen(t *testing.T) {
	b, clk := testBreaker(1, 10*time.Second, 30*time.Second)
	b.Fail(2)
	clk.advance(31 * time.Second)
	if b.Open(2) { // flips half-open
		t.Fatal("still open after cooldown")
	}
	clk.advance(11 * time.Second)
	if b.Open(2) {
		t.Fatal("open after probe window elapsed")
	}
	b.mu.Lock()
	st := b.states[2]
	if st.probing || !st.openUntil.IsZero() {
		t.Fatalf("state = %+v, want fully closed after implicit probe pass", st)
	}
	b.mu.Unlock()
}

func TestBreakerOpenIDsSorted(t *testing.T) {
	b, _ := testBreaker(1, 10*time.Second, 30*time.Second)
	b.Fail(5)
	b.Fail(1)
	b.Fail(3)
	got := b.OpenIDs()
	want := []int32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("OpenIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OpenIDs = %v, want %v", got, want)
		}
	}
}

func TestBreakerDisabled(t *testing.T) {
	if b := resolveBreaker(-1, 0, 0); b != nil {
		t.Fatal("negative threshold did not disable the breaker")
	}
	var b *pseBreaker
	// Every method must be a nil-safe no-op.
	if b.Fail(1) || b.FailN(1, 10) || b.Open(1) {
		t.Fatal("nil breaker reported activity")
	}
	b.Succeed(1)
	if ids := b.OpenIDs(); ids != nil {
		t.Fatalf("nil breaker OpenIDs = %v", ids)
	}
}

func TestResolveBreakerDefaults(t *testing.T) {
	b := resolveBreaker(0, 0, 0)
	if b == nil {
		t.Fatal("zero config disabled the breaker")
	}
	if b.cfg.threshold != DefaultBreakerThreshold ||
		b.cfg.window != DefaultBreakerWindow ||
		b.cfg.cooldown != DefaultBreakerCooldown {
		t.Fatalf("cfg = %+v, want defaults", b.cfg)
	}
}

// --- Breaker / plan-selection interaction -------------------------------

func breakerCompiled(t *testing.T) *partition.Compiled {
	t.Helper()
	u := testprog.PushUnit()
	prog, _ := u.Program("push")
	classes, err := u.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := testprog.PushBuiltins()
	c, err := partition.Compile(prog, classes, reg, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// breakerPSE finds the PSE id for an edge, as in the reconfig tests.
func breakerPSE(t *testing.T, c *partition.Compiled, from, to int) int32 {
	t.Helper()
	for id := int32(0); id < int32(c.NumPSEs()); id++ {
		p, _ := c.PSE(id)
		if p.Edge.From == from && p.Edge.To == to {
			return id
		}
	}
	t.Fatalf("no PSE for edge (%d,%d)", from, to)
	return -1
}

// TestSelectionSequenceAllocs pins the subscriber's per-selection
// sequence (selectPlan: OpenIDs → SetTripped → SelectPlan) with no open
// breaker to exactly the two objects a selection returns, the Plan and
// the wire.Plan. A breaker holding a closed-state failure keeps OpenIDs
// walking its state map.
func TestSelectionSequenceAllocs(t *testing.T) {
	c := breakerCompiled(t)
	stats, _, postID := pushStats(c, t)
	b, _ := testBreaker(3, 10*time.Second, 30*time.Second)
	b.Fail(postID)
	unit := newPolicyUnit(c, costmodel.DefaultEnvironment(), reconfig.LatencyFirst, 0.1, 0)
	run := func() {
		unit.SetTripped(b.OpenIDs())
		if _, _, err := unit.SelectPlan(stats); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // the unit's selection buffers and the cut's plan template
	}
	if got := testing.AllocsPerRun(100, run); got != 2 {
		t.Fatalf("OpenIDs → SetTripped → SelectPlan allocates %.0f objects, want 2", got)
	}
}

// pushStats fabricates the profile that makes the post-transform cut
// optimal: large incoming images, small resized continuations.
func pushStats(c *partition.Compiled, t *testing.T) (map[int32]costmodel.Stat, int32, int32) {
	preID := breakerPSE(t, c, 2, 3)
	postID := breakerPSE(t, c, 4, 5)
	filterID := breakerPSE(t, c, 1, 7)
	stats := map[int32]costmodel.Stat{
		partition.RawPSEID: {Count: 100, Prob: 1, Bytes: 40100},
		preID:              {Count: 100, Prob: 1, Bytes: 40100},
		postID:             {Count: 100, Prob: 1, Bytes: 10100},
		filterID:           {Count: 0},
	}
	return stats, preID, postID
}

// TestTrippedPSERoutedAround: tripping the optimal PSE's breaker must push
// the min-cut to a valid plan that excludes it — the failure-aware
// degradation path the publisher and subscriber both run.
func TestTrippedPSERoutedAround(t *testing.T) {
	c := breakerCompiled(t)
	unit := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
	stats, _, postID := pushStats(c, t)

	plan, _, err := unit.SelectPlan(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Split(postID) {
		t.Fatalf("baseline plan %v does not select the post-transform cut", plan)
	}

	b, _ := testBreaker(1, 10*time.Second, 30*time.Second)
	b.Fail(postID)
	unit.SetTripped(b.OpenIDs())
	degraded, _, err := unit.SelectPlan(stats)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Split(postID) {
		t.Fatalf("degraded plan %v still selects tripped PSE %d", degraded, postID)
	}
	if err := c.ValidateSplitSet(degraded.SplitIDs()); err != nil {
		t.Fatalf("degraded plan invalid: %v", err)
	}
	if degraded.Version() <= plan.Version() {
		t.Fatalf("version did not advance: %d then %d", plan.Version(), degraded.Version())
	}
}

// TestAllTrippedFallsBackToRaw: with every non-raw PSE excluded, the only
// finite cut left is shipping the raw event.
func TestAllTrippedFallsBackToRaw(t *testing.T) {
	c := breakerCompiled(t)
	unit := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
	stats, _, _ := pushStats(c, t)

	b, _ := testBreaker(1, 10*time.Second, 30*time.Second)
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		b.Fail(id)
	}
	unit.SetTripped(b.OpenIDs())
	plan, _, err := unit.SelectPlan(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Raw() {
		t.Fatalf("plan %v, want raw fallback with all PSEs tripped", plan)
	}
	if err := c.ValidateSplitSet(plan.SplitIDs()); err != nil {
		t.Fatalf("raw fallback invalid: %v", err)
	}
}

// TestHalfOpenReadmission: once the cooldown elapses the PSE leaves
// OpenIDs, so the next plan selection may re-admit it — the probe. A
// failure during the probe excludes it again.
func TestHalfOpenReadmission(t *testing.T) {
	c := breakerCompiled(t)
	unit := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
	stats, _, postID := pushStats(c, t)

	b, clk := testBreaker(1, 10*time.Second, 30*time.Second)
	b.Fail(postID)
	unit.SetTripped(b.OpenIDs())
	if plan, _, err := unit.SelectPlan(stats); err != nil || plan.Split(postID) {
		t.Fatalf("plan %v err %v, want tripped PSE excluded", plan, err)
	}

	// Cooldown elapses: OpenIDs empties and the optimizer re-selects the
	// probed PSE.
	clk.advance(31 * time.Second)
	if ids := b.OpenIDs(); len(ids) != 0 {
		t.Fatalf("OpenIDs = %v after cooldown", ids)
	}
	unit.SetTripped(b.OpenIDs())
	probe, _, err := unit.SelectPlan(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !probe.Split(postID) {
		t.Fatalf("probe plan %v did not re-admit PSE %d", probe, postID)
	}

	// The probe fails: immediate re-exclusion.
	if !b.Fail(postID) {
		t.Fatal("probe failure did not re-open")
	}
	unit.SetTripped(b.OpenIDs())
	again, _, err := unit.SelectPlan(stats)
	if err != nil {
		t.Fatal(err)
	}
	if again.Split(postID) {
		t.Fatalf("plan %v re-selected PSE %d after failed probe", again, postID)
	}
}
