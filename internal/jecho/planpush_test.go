package jecho

import (
	"errors"
	"sync/atomic"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// planCounter wraps a Mem transport and counts the plan frames written on
// the connections it dials — a subscriber's plan pushes.
type planCounter struct {
	*transport.Mem
	plans atomic.Int64
}

func (p *planCounter) Dial(addr string) (transport.Conn, error) {
	c, err := p.Mem.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &planCountConn{Conn: c, plans: &p.plans}, nil
}

type planCountConn struct {
	transport.Conn
	plans *atomic.Int64
}

func (c *planCountConn) WriteFrame(payload []byte) error {
	if m, err := wire.Unmarshal(payload); err == nil {
		if _, ok := m.(*wire.Plan); ok {
			c.plans.Add(1)
		}
	}
	return c.Conn.WriteFrame(payload)
}

const pushEvery = 10 // ReconfigEvery and FeedbackEvery of the harness

// pushHarness is one publisher and one subscriber over Mem, with the
// subscriber's plan pushes counted. Frames of 96×96 on a 64-pixel display
// settle on the post-resize cut and stay there.
type pushHarness struct {
	pub       *Publisher
	sub       *Subscriber
	counter   *planCounter
	published uint64
}

func newPushHarness(t *testing.T, name string) *pushHarness {
	t.Helper()
	mem := transport.NewMem()
	pubReg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          pubReg,
		FeedbackEvery:     pushEvery,
		HeartbeatInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	h := &pushHarness{pub: pub, counter: &planCounter{Mem: mem}}
	h.sub = h.subscribe(t, name)
	waitFor(t, "registration", func() bool { return pub.Subscribers() == 1 && pub.PlanClasses() == 1 })
	return h
}

func (h *pushHarness) subscribe(t *testing.T, name string) *Subscriber {
	t.Helper()
	reg, _ := imaging.Builtins()
	sub, err := Subscribe(SubscriberConfig{
		Addr:              h.pub.Addr(),
		Transport:         h.counter,
		Name:              name,
		Source:            imaging.HandlerSource(64),
		Handler:           imaging.HandlerName,
		CostModel:         costmodel.DataSizeName,
		Natives:           []string{"displayImage"},
		Builtins:          reg,
		Environment:       costmodel.DefaultEnvironment(),
		ReconfigEvery:     pushEvery,
		HeartbeatInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	return sub
}

// publish sends n frames and waits until every subscriber processed them,
// then runs one fence frame through: a subscriber handles messages in
// order, so once the fence is processed every earlier message's
// reconfiguration (and plan push) has completed.
func (h *pushHarness) publish(t *testing.T, n int, subs ...*Subscriber) {
	t.Helper()
	for i := 0; i <= n; i++ {
		if _, err := h.pub.Publish(imaging.NewFrame(96, 96, int64(h.published))); err != nil {
			t.Fatal(err)
		}
		h.published++
	}
	waitFor(t, "delivery", func() bool {
		for _, s := range subs {
			if s.Processed() != h.published {
				return false
			}
		}
		return true
	})
}

// pushedPlan reads the subscriber's last pushed split and version.
func pushedPlan(s *Subscriber) ([]int32, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int32(nil), s.lastSplit...), s.pushedVersion
}

// TestSteadyCutPushesNoPlans is the push-on-change guarantee: once the cut
// has settled, selection keeps running at its cadence but no plan frame
// goes out, and the publisher's subscription keeps its plan version.
func TestSteadyCutPushesNoPlans(t *testing.T) {
	h := newPushHarness(t, "steady")
	h.publish(t, 3*pushEvery, h.sub)
	_, pushed := pushedPlan(h.sub)
	h.awaitPublisherPlan(t, pushed)
	plans0 := h.counter.plans.Load()
	selections0 := h.sub.runit.LastExplanation().Version
	info0 := h.pub.Subscriptions()[0]

	const k = 10
	h.publish(t, k*pushEvery, h.sub)
	if got := h.counter.plans.Load() - plans0; got != 0 {
		t.Errorf("%d plan frames over %d steady events, want 0", got, k*pushEvery)
	}
	if got := h.sub.runit.LastExplanation().Version - selections0; got < k {
		t.Errorf("only %d selections over %d events, want at least %d", got, k*pushEvery, k)
	}
	info := h.pub.Subscriptions()[0]
	if info.PlanVersion != info0.PlanVersion || !partition.EqualCut(info.SplitIDs, info0.SplitIDs) {
		t.Errorf("publisher plan moved from v%d %v to v%d %v without a push",
			info0.PlanVersion, info0.SplitIDs, info.PlanVersion, info.SplitIDs)
	}
	if split, version := pushedPlan(h.sub); version != info.PlanVersion || !partition.EqualCut(split, info.SplitIDs) {
		t.Errorf("subscriber pushed v%d %v, publisher runs v%d %v", version, split, info.PlanVersion, info.SplitIDs)
	}
}

// TestEqualCutsShareClassAcrossVersions pushes the same cut from two
// subscriptions whose plan version histories differ: the version is not
// behaviour, so both land in one class and each event is modulated once.
func TestEqualCutsShareClassAcrossVersions(t *testing.T) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	a := dialLite(t, mem, pub.Addr(), "a")
	b := dialLite(t, mem, pub.Addr(), "b")
	waitFor(t, "registration", func() bool { return pub.Subscribers() == 2 })
	plan := func(version uint64, split ...int32) *wire.Plan {
		return &wire.Plan{Handler: imaging.HandlerName, Version: version, Split: split, Profile: []int32{0, 1, 2, 3}}
	}
	a.send(t, plan(1, 1, 3))
	b.send(t, plan(4, partition.RawPSEID))
	b.send(t, plan(9, 1, 3))
	waitFor(t, "both on the shared cut", func() bool {
		infos := pub.Subscriptions()
		return len(infos) == 2 && infos[0].PlanVersion == 1 && infos[1].PlanVersion == 9
	})
	if got := pub.PlanClasses(); got != 1 {
		t.Fatalf("plan classes = %d for one cut under versions 1 and 9, want 1", got)
	}

	runs0, saved0 := pub.ModulatorRuns(), pub.ModulationsSaved()
	const events = 25
	for i := 0; i < events; i++ {
		if n, err := pub.Publish(imaging.NewFrame(96, 96, int64(i))); err != nil || n != 2 {
			t.Fatalf("publish %d reached %d: %v", i, n, err)
		}
	}
	if got := pub.ModulatorRuns() - runs0; got != events {
		t.Errorf("modulator runs = %d for %d events, want one per event", got, events)
	}
	if got := pub.ModulationsSaved() - saved0; got != events {
		t.Errorf("modulations saved = %d, want %d", got, events)
	}
}

// awaitPublisherPlan is the publisher-side fence: a subscriber that has
// written a plan push has not had it applied yet, because the publisher's
// read loop handles the frame asynchronously. It waits until the
// publisher's subscription runs at least the given version.
func (h *pushHarness) awaitPublisherPlan(t *testing.T, version uint64) {
	t.Helper()
	waitFor(t, "the publisher to apply the pushed plan", func() bool {
		infos := h.pub.Subscriptions()
		return len(infos) == 1 && infos[0].PlanVersion >= version
	})
}

// TestDegradeForcesRepushOfUnchangedCut has the publisher force a degrade
// (a local plan under a version the subscriber never pushed). The
// subscriber's cut does not change, yet it must re-push it once feedback
// reports the publisher ahead, and both ends converge on the subscriber's
// cut under one version.
func TestDegradeForcesRepushOfUnchangedCut(t *testing.T) {
	h := newPushHarness(t, "degraded")
	h.publish(t, 3*pushEvery, h.sub)
	split0, version0 := pushedPlan(h.sub)
	h.awaitPublisherPlan(t, version0)
	plans0 := h.counter.plans.Load()

	// Trip the raw PSE — outside the settled cut, so the subscriber's
	// re-push is admissible — and degrade.
	s := h.pub.reg.snapshot()[0]
	if partition.EqualCut(split0, []int32{partition.RawPSEID}) {
		t.Fatalf("settled cut %v is raw; the test needs a split cut", split0)
	}
	for !s.breaker.Fail(partition.RawPSEID) {
	}
	h.pub.degrade(s)
	forced := s.planVersion.Load()
	if forced <= version0 {
		t.Fatalf("degrade left version %d, want past the pushed v%d", forced, version0)
	}

	h.publish(t, 3*pushEvery, h.sub)
	split, version := pushedPlan(h.sub)
	if !partition.EqualCut(split, split0) {
		t.Errorf("subscriber cut moved from %v to %v", split0, split)
	}
	if version <= forced {
		t.Errorf("subscriber last pushed v%d, want a re-push past the forced v%d", version, forced)
	}
	if got := h.counter.plans.Load() - plans0; got != 1 {
		t.Errorf("%d plan frames after the degrade, want exactly one re-push", got)
	}
	h.awaitPublisherPlan(t, version)
	info := h.pub.Subscriptions()[0]
	if info.PlanVersion != version || !partition.EqualCut(info.SplitIDs, split) {
		t.Errorf("publisher runs v%d %v, subscriber pushed v%d %v", info.PlanVersion, info.SplitIDs, version, split)
	}
}

// TestPlanAfterRetirementIsNotStale pins the retirement race: a plan that
// reaches a subscription already retired is dropped as such, never
// reported (or traced) as a stale version.
func TestPlanAfterRetirementIsNotStale(t *testing.T) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	tr := obsv.NewTracer(64)
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		Tracer:            tr,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	dialLite(t, mem, pub.Addr(), "leaving")
	waitFor(t, "registration", func() bool { return pub.Subscribers() == 1 && pub.PlanClasses() == 1 })
	s := pub.reg.snapshot()[0]
	pub.retire(s)

	err = pub.applyWirePlan(s, &wire.Plan{Handler: imaging.HandlerName, Version: 5, Split: []int32{1, 3}})
	if !errors.Is(err, errRetired) {
		t.Fatalf("plan after retirement: err = %v, want errRetired", err)
	}
	if errors.Is(err, partition.ErrStalePlan) {
		t.Errorf("plan after retirement reported as stale: %v", err)
	}
	for _, e := range tr.Snapshot() {
		if e.Kind == obsv.EvPlanStale {
			t.Errorf("traced %v for a retired subscription", e)
		}
	}
}
