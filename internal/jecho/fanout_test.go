package jecho

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// liteSub is a raw-conn subscriber for fan-out tests: it performs the
// Subscribe handshake and drains inbound frames into a recorded event list,
// without a demodulator, reconfiguration unit or heartbeats. Publishers in
// these tests disable silence detection (HeartbeatInterval < 0) so a
// liteSub's silence never retires it.
type liteSub struct {
	conn transport.Conn
	mu   sync.Mutex
	raw  int
	cont []int32 // split PSE of each received continuation, in order
}

func dialLite(t *testing.T, mem *transport.Mem, addr, name string) *liteSub {
	t.Helper()
	ls, err := dialLiteErr(mem, addr, name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.close)
	return ls
}

func dialLiteErr(mem *transport.Mem, addr, name string) (*liteSub, error) {
	conn, err := mem.Dial(addr)
	if err != nil {
		return nil, err
	}
	data, err := wire.Marshal(&wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: name,
		Handler:    imaging.HandlerName,
		Source:     imaging.HandlerSource(64),
		CostModel:  costmodel.DataSizeName,
		Natives:    []string{"displayImage"},
	})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := conn.WriteFrame(data); err != nil {
		_ = conn.Close()
		return nil, err
	}
	ls := &liteSub{conn: conn}
	go ls.drain()
	return ls, nil
}

func (l *liteSub) drain() {
	for {
		frame, err := l.conn.ReadFrame()
		if err != nil {
			return
		}
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			continue
		}
		switch m := msg.(type) {
		case *wire.Raw:
			l.mu.Lock()
			l.raw++
			l.mu.Unlock()
		case *wire.Continuation:
			l.mu.Lock()
			l.cont = append(l.cont, m.PSEID)
			l.mu.Unlock()
		}
	}
}

func (l *liteSub) close() { _ = l.conn.Close() }

// events returns (raw count, continuation split PSEs).
func (l *liteSub) events() (int, []int32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.raw, append([]int32(nil), l.cont...)
}

func (l *liteSub) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.raw + len(l.cont)
}

func (l *liteSub) send(t *testing.T, msg any) {
	t.Helper()
	data, err := wire.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.conn.WriteFrame(data); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingBuiltins clones the imaging registry, wrapping resizeTo so the
// counter tracks actual interpreter executions of the handler's movable
// prefix: with a post-resize split plan, one modulation = one resize.
func countingBuiltins() (*interp.Registry, *atomic.Uint64) {
	base, _ := imaging.Builtins()
	reg := interp.NewRegistry()
	var runs atomic.Uint64
	for _, name := range base.Names() {
		b, _ := base.Lookup(name)
		nb := *b
		if name == "resizeTo" {
			inner := b.Fn
			nb.Fn = func(env *interp.Env, args []mir.Value) (mir.Value, error) {
				runs.Add(1)
				return inner(env, args)
			}
		}
		reg.MustRegister(nb)
	}
	return reg, &runs
}

// TestFanoutSharedModulation is the acceptance check for plan-equivalence
// class sharing: N subscribers with identical (channel, program, plan,
// protocol, batching) must cost exactly one modulator run — counted both by
// the publisher's run counter and by an interpreter-level counter inside
// the handler — and one marshal per event, with the remaining N-1 runs
// showing up in methodpart_modulations_saved_total.
func TestFanoutSharedModulation(t *testing.T) {
	mem := transport.NewMem()
	reg, interpRuns := countingBuiltins()
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

	const n = 6
	subs := make([]*liteSub, n)
	for i := range subs {
		subs[i] = dialLite(t, mem, pub.Addr(), fmt.Sprintf("fan-%d", i))
	}
	waitFor(t, "registration", func() bool { return pub.Subscribers() == n })
	if got := pub.PlanClasses(); got != 1 {
		t.Fatalf("plan classes = %d before any plan push, want 1 (all on the initial raw plan)", got)
	}

	// Everyone pushes the same post-resize split plan; they must coalesce
	// back into a single class once the migrations settle.
	for _, ls := range subs {
		ls.send(t, &wire.Plan{
			Handler: imaging.HandlerName,
			Version: 1,
			Split:   []int32{1, 3},
			Profile: []int32{0, 1, 2, 3},
		})
	}
	waitFor(t, "plan v1 on every subscription", func() bool {
		infos := pub.Subscriptions()
		if len(infos) != n {
			return false
		}
		for _, info := range infos {
			if info.PlanVersion != 1 {
				return false
			}
		}
		return pub.PlanClasses() == 1
	})

	runs0 := pub.ModulatorRuns()
	saved0 := pub.ModulationsSaved()
	interp0 := interpRuns.Load()

	const events = 20
	for i := 0; i < events; i++ {
		reached, err := pub.Publish(imaging.NewFrame(96, 96, int64(i)))
		if err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		if reached != n {
			t.Fatalf("publish %d reached %d, want %d", i, reached, n)
		}
	}

	if got := pub.ModulatorRuns() - runs0; got != events {
		t.Errorf("modulator runs = %d for %d events, want exactly one per event", got, events)
	}
	if got := interpRuns.Load() - interp0; got != events {
		t.Errorf("interpreter ran the split prefix %d times for %d events, want exactly one per event", got, events)
	}
	if got, want := pub.ModulationsSaved()-saved0, uint64(events*(n-1)); got != want {
		t.Errorf("modulations saved = %d, want %d (N-1 per event)", got, want)
	}

	// The same totals must be visible through the metrics surface.
	var savedSample, runsSample float64
	pub.Collect(func(s obsv.Sample) {
		switch s.Name {
		case "methodpart_modulations_saved_total":
			savedSample = s.Value
		case "methodpart_modulator_runs_total":
			runsSample = s.Value
		}
	})
	if savedSample != float64(pub.ModulationsSaved()) {
		t.Errorf("methodpart_modulations_saved_total = %v, want %v", savedSample, float64(pub.ModulationsSaved()))
	}
	if runsSample != float64(pub.ModulatorRuns()) {
		t.Errorf("methodpart_modulator_runs_total = %v, want %v", runsSample, float64(pub.ModulatorRuns()))
	}

	// Every member received every event as a post-resize continuation: the
	// single modulation fanned out N ways.
	for i, ls := range subs {
		ls := ls
		waitFor(t, fmt.Sprintf("sub %d delivery", i), func() bool { return ls.total() >= events })
		raw, cont := ls.events()
		if raw != 0 || len(cont) != events {
			t.Errorf("sub %d received raw=%d cont=%d, want 0/%d", i, raw, len(cont), events)
			continue
		}
		for j, pse := range cont {
			if pse != 3 {
				t.Errorf("sub %d event %d split at pse %d, want 3", i, j, pse)
			}
		}
	}
}

// TestBreakerDegradeMigratesClass pins the stale-class guarantee of
// satellite 3: when NACKs from one subscriber trip its breaker and force a
// degraded plan, that subscription migrates out of the shared class
// atomically — events published after the flip are never modulated for it
// under the old class's plan, while an unaffected member of the old class
// keeps its split.
func TestBreakerDegradeMigratesClass(t *testing.T) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		BreakerThreshold:  2,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	a := dialLite(t, mem, pub.Addr(), "victim")
	b := dialLite(t, mem, pub.Addr(), "healthy")
	waitFor(t, "registration", func() bool { return pub.Subscribers() == 2 })
	for _, ls := range []*liteSub{a, b} {
		ls.send(t, &wire.Plan{
			Handler: imaging.HandlerName,
			Version: 1,
			Split:   []int32{1, 3},
			Profile: []int32{0, 1, 2, 3},
		})
	}
	waitFor(t, "shared v1 class", func() bool {
		infos := pub.Subscriptions()
		if len(infos) != 2 {
			return false
		}
		for _, info := range infos {
			if info.PlanVersion != 1 {
				return false
			}
		}
		return pub.PlanClasses() == 1
	})

	const warm = 5
	for i := 0; i < warm; i++ {
		if _, err := pub.Publish(imaging.NewFrame(96, 96, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Settle: both sides fully delivered, so no pre-flip frame can arrive
	// after the flip and muddy the post-flip assertion.
	waitFor(t, "warmup delivery", func() bool { return a.total() == warm && b.total() == warm })

	// Two restore failures at the split PSE trip the victim's breaker and
	// force a sender-side degrade.
	for i := 0; i < 2; i++ {
		a.send(t, &wire.Nack{Handler: imaging.HandlerName, Seq: uint64(i), PSEID: 3, Class: wire.NackRestore})
	}
	waitFor(t, "breaker-forced plan flip", func() bool {
		for _, info := range pub.Subscriptions() {
			if info.PlanVersion > 1 {
				for _, id := range info.SplitIDs {
					if id == 3 {
						return false
					}
				}
				return true
			}
		}
		return false
	})
	if got := pub.PlanClasses(); got != 2 {
		t.Fatalf("plan classes = %d after degrade, want 2 (victim migrated out)", got)
	}

	aRaw0, aCont0 := a.events()
	_, bCont0 := b.events()
	const post = 10
	for i := 0; i < post; i++ {
		reached, err := pub.Publish(imaging.NewFrame(96, 96, int64(warm+i)))
		if err != nil {
			t.Fatal(err)
		}
		if reached != 2 {
			t.Fatalf("post-flip publish reached %d, want 2", reached)
		}
	}
	waitFor(t, "post-flip delivery", func() bool { return a.total() == warm+post && b.total() == warm+post })

	// The victim must never again see a continuation split at the poisoned
	// PSE: its events were modulated under the degraded class only.
	aRaw, aCont := a.events()
	for _, pse := range aCont[len(aCont0):] {
		if pse == 3 {
			t.Errorf("victim received a post-flip continuation split at the tripped pse 3")
		}
	}
	if got := (aRaw - aRaw0) + (len(aCont) - len(aCont0)); got != post {
		t.Errorf("victim received %d post-flip events, want %d", got, post)
	}
	// The healthy member's class is untouched: still split at 3.
	_, bCont := b.events()
	if got := len(bCont) - len(bCont0); got != post {
		t.Fatalf("healthy member received %d post-flip continuations, want %d", got, post)
	}
	for _, pse := range bCont[len(bCont0):] {
		if pse != 3 {
			t.Errorf("healthy member's split moved to pse %d, want 3", pse)
		}
	}
}

// TestChurnRacePublishSubscribeDegrade races broadcasts against
// subscription churn, plan pushes and breaker-forced degrades. Run with
// -race; the invariants checked at the end are that the steady subscriber
// survives with a consistent class and keeps receiving.
func TestChurnRacePublishSubscribeDegrade(t *testing.T) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		BreakerThreshold:  2,
		QueueDepth:        16,
		OverflowPolicy:    DropOldest,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	steady := dialLite(t, mem, pub.Addr(), "steady")
	waitFor(t, "steady registration", func() bool { return pub.Subscribers() == 1 })

	var wg sync.WaitGroup
	churnDone := make(chan struct{})
	// Churners: connect, push a plan, disconnect — racing the publisher's
	// registry inserts, class joins and retires.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ls, err := dialLiteErr(mem, pub.Addr(), fmt.Sprintf("churn%d-%d", g, i))
				if err != nil {
					continue
				}
				if data, err := wire.Marshal(&wire.Plan{
					Handler: imaging.HandlerName,
					Version: uint64(i%7) + 1,
					Split:   []int32{1, 3},
					Profile: []int32{0, 1, 2, 3},
				}); err == nil {
					_ = ls.conn.WriteFrame(data)
				}
				time.Sleep(time.Duration(i%3) * time.Millisecond)
				ls.close()
			}
		}(g)
	}
	// The steady subscriber flips its plan between raw and post-resize
	// splits, migrating between classes while broadcasts are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); v <= 40; v++ {
			split := []int32{1, 3}
			if v%2 == 0 {
				split = []int32{partition.RawPSEID}
			}
			if data, err := wire.Marshal(&wire.Plan{
				Handler: imaging.HandlerName,
				Version: v,
				Split:   split,
				Profile: []int32{0, 1, 2, 3},
			}); err == nil {
				_ = steady.conn.WriteFrame(data)
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// A burst of NACKs somewhere in the middle trips the steady breaker and
	// forces a degrade concurrent with the plan pushes above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(10 * time.Millisecond)
		for i := 0; i < 4; i++ {
			if data, err := wire.Marshal(&wire.Nack{
				Handler: imaging.HandlerName, Seq: uint64(i), PSEID: 3, Class: wire.NackRestore,
			}); err == nil {
				_ = steady.conn.WriteFrame(data)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { wg.Wait(); close(churnDone) }()

	// Broadcast throughout the churn. Publish errors are expected — churn
	// subscriptions die mid-fan-out — but must never panic or wedge.
	event := imaging.NewFrame(64, 64, 1)
	for done := false; !done; {
		select {
		case <-churnDone:
			done = true
		default:
			_, _ = pub.Publish(event)
		}
	}

	// Churn is over: the registry must settle back to the steady
	// subscription alone, in exactly one class, and still deliver.
	waitFor(t, "churn retires", func() bool { return pub.Subscribers() == 1 })
	waitFor(t, "single class", func() bool { return pub.PlanClasses() == 1 })
	before := steady.total()
	const tail = 5
	for i := 0; i < tail; i++ {
		reached, err := pub.Publish(imaging.NewFrame(64, 64, int64(i)))
		if err != nil {
			t.Fatalf("post-churn publish: %v", err)
		}
		if reached != 1 {
			t.Fatalf("post-churn publish reached %d, want 1", reached)
		}
	}
	waitFor(t, "post-churn delivery", func() bool { return steady.total() >= before+tail })
}

// newFanoutAllocHarness builds a publisher with n same-class members whose
// pipelines are never started: a DropNewest queue of depth 4 fills and then
// sheds (releasing each frame), so repeated publishes exercise the whole
// publish path — snapshot, modulation, marshal, refcounted fan-out,
// feedback pacing — at steady state without sender goroutines adding
// allocation noise to AllocsPerRun.
func newFanoutAllocHarness(t testing.TB, members int) (*Publisher, mir.Value) {
	t.Helper()
	const never = 1 << 60 // feedback is never due: its marshals are amortized, not per-event
	p := barePublisher(never)
	entry := compileImaging(t, p)
	plan, err := partition.NewPlan(entry.compiled.NumPSEs(), 0, []int32{partition.RawPSEID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < members; i++ {
		if !p.register(bareSubscription(entry, never), "alloc", plan) {
			t.Fatal("harness publisher refused a registration")
		}
	}
	return p, imaging.NewFrame(32, 32, 1)
}

// TestPublishFanoutAllocs guards satellite 1: the per-member cost of a
// publish is counters plus a refcounted queue handoff, so the allocation
// count of one publish must not grow with the member count — no fresh
// member slice, error slice or WaitGroup per event.
func TestPublishFanoutAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector bypasses sync.Pool at random, distorting allocation counts")
	}
	perPublish := func(members int) float64 {
		p, event := newFanoutAllocHarness(t, members)
		// Prime the queues to steady state (full, shedding).
		for i := 0; i < 8; i++ {
			if _, err := p.Publish(event); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := p.Publish(event); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := perPublish(1)
	many := perPublish(64)
	if many > one {
		t.Errorf("publish allocates %.1f/event with 64 members vs %.1f with 1: per-member allocations crept back in", many, one)
	}
	// The absolute budget: modulating one raw event costs its Raw message
	// and its Output; the frame and the sizer come from pools. Anything
	// more means a transient (slice, WaitGroup, snapshot copy) is back on
	// the per-event path.
	if one > 2 {
		t.Errorf("publish allocates %.1f/event with 1 member, budget is 2", one)
	}
}

func BenchmarkPublishFanout(b *testing.B) {
	for _, members := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("members=%d", members), func(b *testing.B) {
			p, event := newFanoutAllocHarness(b, members)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Publish(event); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
