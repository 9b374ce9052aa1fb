package jecho

import (
	"fmt"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/wire"
)

// soleSubscription returns the publisher's only live subscription, read
// from the snapshot Publish reads.
func soleSubscription(t testing.TB, p *Publisher) *subscription {
	t.Helper()
	views := p.classes.snapshot()
	if len(views) != 1 || len(views[0].members) != 1 {
		t.Fatalf("want exactly one subscription, have %d in %d classes", p.Subscribers(), len(views))
	}
	return views[0].members[0]
}

// barePublisher is a publisher with no listener: subscriptions join it
// through register, the handshake's own registration step, with stub
// connections and send pipelines that never start.
func barePublisher(feedbackEvery uint64) *Publisher {
	reg, _ := imaging.Builtins()
	p := &Publisher{cfg: PublisherConfig{
		Builtins:      reg,
		FeedbackEvery: feedbackEvery,
		Logf:          func(string, ...any) {},
	}}
	p.classes.init()
	p.programs = make(map[string]*compiledEntry)
	return p
}

// compileImaging compiles the imaging handler on p's compile cache.
func compileImaging(t testing.TB, p *Publisher) *compiledEntry {
	t.Helper()
	entry, err := p.compileCached(&wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: "bare",
		Handler:    imaging.HandlerName,
		Source:     imaging.HandlerSource(64),
		CostModel:  costmodel.DataSizeName,
		Natives:    []string{"displayImage"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// bareSubscription builds an unregistered subscription on entry whose
// pipeline (depth 4, DropNewest) is never started.
func bareSubscription(entry *compiledEntry, feedbackEvery uint64) *subscription {
	s := &subscription{
		conn:     newStubConn(false),
		compiled: entry.compiled,
		env:      entry.env,
		progKey:  entry.key,
		trigger:  &profileunit.RateTrigger{EveryMessages: feedbackEvery},
		metrics:  &channelMetrics{},
		breaker:  resolveBreaker(0, 0, 0),
	}
	s.pipe = newTestPipeline(s.conn, 4, DropNewest, batchConfig{}, s.metrics)
	return s
}

// memberSteps is the length of a subscription's life in the test: join,
// install one of two pushed plans, degrade, retire, always in that order.
const memberSteps = 4

// interleavings calls visit with every order in which n subscriptions can
// each take their memberSteps steps: every sequence of subscription
// indices in which each index appears memberSteps times.
func interleavings(n int, visit func([]int)) {
	left := make([]int, n)
	for i := range left {
		left[i] = memberSteps
	}
	seq := make([]int, 0, n*memberSteps)
	var rec func()
	rec = func() {
		if len(seq) == cap(seq) {
			visit(seq)
			return
		}
		for i := range left {
			if left[i] == 0 {
				continue
			}
			left[i]--
			seq = append(seq, i)
			rec()
			seq = seq[:len(seq)-1]
			left[i]++
		}
	}
	rec()
}

// TestMembershipInterleavings drives every interleaving of join → install
// (plan A or B) → degrade → retire for two subscriptions (every plan choice)
// and three (A, B, A), with no network and no goroutines, and checks the
// publish snapshot after every step:
//   - each live subscription sits in exactly one row, whose class is its
//     class pointer; a retired one is in no row and has no class;
//   - no row is empty and no two rows share a key;
//   - Subscribers and Subscriptions count the live subscriptions,
//     PlanClasses their distinct class keys;
//   - no subscription's plan version ever decreases.
func TestMembershipInterleavings(t *testing.T) {
	const every = 1 << 60
	entry := compileImaging(t, barePublisher(every))
	cuts := entry.compiled.CutTable(reconfig.DefaultMaxCandidates).Cuts
	if len(cuts) < 3 {
		t.Fatalf("handler has %d cuts; the test needs two split cuts besides raw", len(cuts))
	}
	plans := [2][]int32{cuts[1], cuts[len(cuts)-1]}
	rawPlan, err := partition.NewPlan(entry.compiled.NumPSEs(), 0, []int32{partition.RawPSEID}, nil)
	if err != nil {
		t.Fatal(err)
	}

	runs := 0
	run := func(choice []int, order []int) {
		runs++
		p := barePublisher(every)
		n := len(choice)
		subs := make([]*subscription, n)
		done := make([]int, n)
		lastVersion := make([]uint64, n)
		for i := range subs {
			subs[i] = bareSubscription(entry, every)
		}
		for step, i := range order {
			s := subs[i]
			what := ""
			switch done[i] {
			case 0:
				what = "join"
				if !p.register(s, fmt.Sprintf("s%d", i), rawPlan) {
					t.Fatalf("%v step %d: register refused", order, step)
				}
			case 1:
				what = fmt.Sprintf("install %c", 'A'+choice[i])
				wp := &wire.Plan{
					Handler: entry.compiled.Prog.Name,
					Version: s.planVersion.Load() + 1,
					Split:   plans[choice[i]],
				}
				if err := p.applyWirePlan(s, wp); err != nil {
					t.Fatalf("%v step %d (%s): %v", order, step, what, err)
				}
			case 2:
				what = "degrade"
				p.degrade(s)
			case 3:
				what = "retire"
				p.retire(s)
			}
			done[i]++
			if err := checkMembership(p, subs, done, lastVersion); err != nil {
				t.Fatalf("order %v choice %v, step %d (sub %d %s): %v", order, choice, step, i, what, err)
			}
		}
		if p.Subscribers() != 0 || len(p.classes.classes) != 0 {
			t.Fatalf("order %v: %d subscribers and %d classes left after every retire",
				order, p.Subscribers(), len(p.classes.classes))
		}
	}

	for c := 0; c < 4; c++ {
		choice := []int{c & 1, c >> 1}
		interleavings(2, func(order []int) { run(choice, order) })
	}
	interleavings(3, func(order []int) { run([]int{0, 1, 0}, order) })
	if want := 4*70 + 34650; runs != want {
		t.Fatalf("ran %d interleavings, want %d", runs, want)
	}
}

// checkMembership checks the snapshot invariants for subscriptions whose
// done[i] steps have run (1-3: live, 4: retired) and reports the first
// violation.
func checkMembership(p *Publisher, subs []*subscription, done []int, lastVersion []uint64) error {
	views := p.classes.snapshot()
	rows := make(map[*subscription]int, len(subs))
	keys := make(map[classKey]bool, len(views))
	for _, v := range views {
		if len(v.members) == 0 {
			return fmt.Errorf("empty row for class %v", v.class.key)
		}
		if keys[v.class.key] {
			return fmt.Errorf("two rows with key %v", v.class.key)
		}
		keys[v.class.key] = true
		for _, m := range v.members {
			rows[m]++
			if c := m.class.Load(); c != v.class {
				return fmt.Errorf("%s is in the row of class %v but points at %p", m.id, v.class.key, c)
			}
		}
	}
	live := 0
	liveKeys := make(map[classKey]bool, len(subs))
	for i, s := range subs {
		switch {
		case done[i] == 0:
			if rows[s] != 0 {
				return fmt.Errorf("sub %d is in a row before it joined", i)
			}
		case done[i] < memberSteps:
			live++
			if rows[s] != 1 {
				return fmt.Errorf("live %s is in %d rows, want 1", s.id, rows[s])
			}
			liveKeys[s.class.Load().key] = true
		default:
			if rows[s] != 0 || s.class.Load() != nil {
				return fmt.Errorf("retired %s is in %d rows (class %p)", s.id, rows[s], s.class.Load())
			}
		}
		v := s.planVersion.Load()
		if v < lastVersion[i] {
			return fmt.Errorf("sub %d plan version fell from %d to %d", i, lastVersion[i], v)
		}
		lastVersion[i] = v
	}
	if got := p.Subscribers(); got != live {
		return fmt.Errorf("Subscribers() = %d, want %d live", got, live)
	}
	if got := len(p.Subscriptions()); got != live {
		return fmt.Errorf("Subscriptions() lists %d, want %d live", got, live)
	}
	if got := p.PlanClasses(); got != len(liveKeys) {
		return fmt.Errorf("PlanClasses() = %d, want %d distinct keys", got, len(liveKeys))
	}
	if got := len(p.classes.classes); got != len(views) {
		return fmt.Errorf("class table holds %d classes, snapshot %d rows", got, len(views))
	}
	return nil
}
