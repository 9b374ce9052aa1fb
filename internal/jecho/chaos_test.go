package jecho_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
)

// chaosPublisher starts a publisher with tight supervision timers on the
// given transport. Logs are discarded: chaos scenarios log from supervision
// goroutines whose timing the test does not control. A caller-set Addr is
// honoured (restart scenarios relisten on a fixed address); the zero value
// auto-allocates as usual.
func chaosPublisher(t *testing.T, tr transport.Transport, cfg jecho.PublisherConfig) *jecho.Publisher {
	t.Helper()
	reg, _ := imaging.Builtins()
	cfg.Transport = tr
	cfg.Builtins = reg
	cfg.Logf = func(string, ...any) {}
	pub, err := jecho.NewPublisher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	return pub
}

// chaosSubscribe attaches a subscriber with explicit supervision config.
func chaosSubscribe(t *testing.T, tr transport.Transport, addr string, cfg jecho.SubscriberConfig) *jecho.Subscriber {
	t.Helper()
	reg, _ := imaging.Builtins()
	cfg.Addr = addr
	cfg.Transport = tr
	cfg.Source = imaging.HandlerSource(64)
	cfg.Handler = imaging.HandlerName
	cfg.CostModel = costmodel.DataSizeName
	cfg.Natives = []string{"displayImage"}
	cfg.Builtins = reg
	cfg.Environment = costmodel.DefaultEnvironment()
	cfg.Logf = func(string, ...any) {}
	sub, err := jecho.Subscribe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	return sub
}

// theSession returns the publisher's single live session, if exactly one.
func theSession(pub *jecho.Publisher) (jecho.SubscriptionInfo, bool) {
	subs := pub.Subscriptions()
	if len(subs) != 1 {
		return jecho.SubscriptionInfo{}, false
	}
	return subs[0], true
}

// TestChaosSeverResubscribeResyncs is the acceptance scenario for the
// supervision layer: converge a channel on its optimal split, cut the link
// mid-stream, and require that the subscriber redials, resubscribes, and
// seeds the fresh session from its merged profiling snapshot — the split
// returns to the pre-failure optimum without either process restarting,
// cut after cut.
func TestChaosSeverResubscribeResyncs(t *testing.T) {
	flaky := transport.NewFlaky(transport.NewMem(), transport.FaultPlan{Seed: 1})
	pub := chaosPublisher(t, flaky, jecho.PublisherConfig{
		FeedbackEvery:     5,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})
	sub := chaosSubscribe(t, flaky, pub.Addr(), jecho.SubscriberConfig{
		Name:              "chaos",
		ReconfigEvery:     5,
		Resubscribe:       true,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})

	// Converge on the optimum for large frames. Publishes that land in a
	// severed window are part of the scenario, not test failures.
	seq := int64(0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = pub.Publish(imaging.NewFrame(200, 200, seq))
			seq++
			time.Sleep(time.Millisecond)
		}
	}
	publish(120)

	// Two cuts: recovery must repeat, and the plan version keep rising
	// across cuts (a reconnect never rolls the plan back).
	for round := 1; round <= 2; round++ {
		before, ok := theSession(pub)
		if !ok {
			t.Fatalf("round %d: no session before the cut", round)
		}
		processedBefore := sub.Processed()

		if n := flaky.SeverAll(); n == 0 {
			t.Fatalf("round %d: SeverAll cut nothing", round)
		}

		// Recovery: a fresh session (new id) registered with a strictly
		// newer plan — pushed by resync, before any post-cut publish.
		deadline := time.Now().Add(10 * time.Second)
		var after jecho.SubscriptionInfo
		for {
			if info, ok := theSession(pub); ok && info.ID != before.ID && info.PlanVersion > before.PlanVersion {
				after = info
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no fresh session after the cut (before=%+v, now=%+v)", round, before, pub.Subscriptions())
			}
			time.Sleep(time.Millisecond)
		}

		if got, want := after.SplitIDs, before.SplitIDs; !equalSplitIDs(got, want) {
			t.Errorf("round %d: split after recovery = %v, want pre-failure optimum %v", round, got, want)
		}
		if m := sub.Metrics(); m.Reconnects < uint64(round) {
			t.Errorf("round %d: subscriber recorded %d reconnects", round, m.Reconnects)
		}
		if err := sub.Err(); err != nil {
			t.Errorf("round %d: Err mid-life after successful resubscribe = %v, want nil", round, err)
		}

		// The recovered channel still moves data and holds the optimum.
		publish(40)
		waitProcessedAbove(t, sub, processedBefore)
		if info, ok := theSession(pub); ok && !equalSplitIDs(info.SplitIDs, before.SplitIDs) {
			t.Errorf("round %d: split drifted after recovery: %v vs %v", round, info.SplitIDs, before.SplitIDs)
		}
	}
}

func equalSplitIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func waitProcessedAbove(t *testing.T, sub *jecho.Subscriber, base uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sub.Processed() <= base {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber stuck at %d processed messages", base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestChaosStalledWriterHitsDeadline is the second acceptance scenario: a
// peer that stops draining wedges the sender's conn write; the write
// deadline must fail it and retire the subscription instead of leaving the
// sender goroutine blocked forever. Heartbeats are disabled so only the
// write path can detect the stall.
func TestChaosStalledWriterHitsDeadline(t *testing.T) {
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{
		QueueDepth:        4,
		OverflowPolicy:    jecho.DropNewest,
		HeartbeatInterval: -1, // no heartbeats: isolate the write deadline
		WriteTimeout:      150 * time.Millisecond,
	})
	stalledSubscriber(t, mem, pub.Addr(), "wedged")
	waitSubscribers(t, pub, 1)

	// Fill the transport buffer until the sender blocks in WriteFrame;
	// DropNewest keeps Publish itself non-blocking throughout.
	deadline := time.Now().Add(10 * time.Second)
	for i := int64(0); pub.Subscribers() != 0; i++ {
		if time.Now().After(deadline) {
			t.Fatal("stalled peer was never retired by the write deadline")
		}
		if _, err := pub.Publish(imaging.NewFrame(64, 64, i)); err != nil {
			t.Fatalf("publish must not error under DropNewest: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Retired cleanly: the publisher keeps serving.
	if n, err := pub.Publish(imaging.NewFrame(64, 64, 9999)); err != nil || n != 0 {
		t.Fatalf("publish after retirement: n=%d err=%v", n, err)
	}
}

// TestChaosSilentPeerRetired: a subscriber that handshakes and then falls
// silent (no heartbeats, no plans) exceeds the publisher's read window and
// is retired — without any publish traffic forcing the issue.
func TestChaosSilentPeerRetired(t *testing.T) {
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   4, // 100ms silence window
	})
	stalledSubscriber(t, mem, pub.Addr(), "mute")
	waitSubscribers(t, pub, 1)
	waitSubscribers(t, pub, 0) // silence window expires, peer retired
}

// TestChaosSubscriberDetectsSilentPublisher: the mirror direction — a
// publisher that accepts the subscription and then never sends a frame
// (here: a bare listener draining frames) trips the subscriber's read
// window; with Resubscribe off that is terminal.
func TestChaosSubscriberDetectsSilentPublisher(t *testing.T) {
	mem := transport.NewMem()
	ln, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c transport.Conn) { // drain, never speak
				for {
					if _, err := c.ReadFrame(); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	sub := chaosSubscribe(t, mem, ln.Addr(), jecho.SubscriberConfig{
		Name:              "watchful",
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   4, // 100ms silence window
	})
	select {
	case <-sub.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber never gave up on the silent publisher")
	}
	if err := sub.Err(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("terminal error = %v, want deadline exceeded", err)
	}
}

// TestChaosResubscribeGivesUp: when the publisher is gone for good, a
// resubscribing subscriber exhausts its attempts and fails terminally —
// Done closes and Err reports the outage.
func TestChaosResubscribeGivesUp(t *testing.T) {
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{})
	sub := chaosSubscribe(t, mem, pub.Addr(), jecho.SubscriberConfig{
		Name:                "orphan",
		Resubscribe:         true,
		ResubscribeAttempts: 2,
	})
	waitSubscribers(t, pub, 1)
	_ = pub.Close() // listener deregisters: every redial is refused
	select {
	case <-sub.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never exhausted its resubscribe attempts")
	}
	if sub.Err() == nil {
		t.Fatal("Err after exhausted resubscribe = nil, want an error")
	}
}

// TestChaosHeartbeatMetrics: an idle but healthy channel exchanges
// heartbeats in both directions, and both endpoints count them.
func TestChaosHeartbeatMetrics(t *testing.T) {
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	sub := chaosSubscribe(t, mem, pub.Addr(), jecho.SubscriberConfig{
		Name:              "pulse",
		HeartbeatInterval: 20 * time.Millisecond,
	})
	waitSubscribers(t, pub, 1)

	deadline := time.Now().Add(5 * time.Second)
	for {
		sm := sub.Metrics()
		pm := findSub(t, pub, "pulse").Metrics
		if sm.HeartbeatsSent > 0 && sm.HeartbeatsReceived > 0 &&
			pm.HeartbeatsSent > 0 && pm.HeartbeatsReceived > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeats not flowing both ways: sub=%+v pub=%+v", sm, pm)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Neither side retired the other: heartbeats kept the idle channel
	// alive across many silence windows.
	if pub.Subscribers() != 1 {
		t.Fatalf("idle heartbeating channel lost its subscription")
	}
}
