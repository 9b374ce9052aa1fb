package jecho_test

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// newMemPublisher starts a publisher on a fresh in-process transport.
func newMemPublisher(t *testing.T, cfg jecho.PublisherConfig) (*jecho.Publisher, *transport.Mem) {
	t.Helper()
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	cfg.Addr = ""
	cfg.Transport = mem
	cfg.Builtins = reg
	cfg.Logf = t.Logf
	pub, err := jecho.NewPublisher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	return pub, mem
}

// memSubscribe attaches a healthy subscriber over the mem transport.
func memSubscribe(t *testing.T, mem *transport.Mem, addr, name string) (*jecho.Subscriber, *results) {
	t.Helper()
	reg, _ := imaging.Builtins()
	res := &results{}
	sub, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:        addr,
		Transport:   mem,
		Name:        name,
		Source:      imaging.HandlerSource(64),
		Handler:     imaging.HandlerName,
		CostModel:   costmodel.DataSizeName,
		Natives:     []string{"displayImage"},
		Builtins:    reg,
		Environment: costmodel.DefaultEnvironment(),
		OnResult:    res.add,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })
	return sub, res
}

// stalledSubscriber performs a valid subscription handshake and then never
// reads another frame: the archetypal slow receiver. The returned conn can
// be closed to simulate the peer dying.
func stalledSubscriber(t *testing.T, mem *transport.Mem, addr, name string) transport.Conn {
	t.Helper()
	conn, err := mem.Dial(addr)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal(err)
	}
	if err := conn.WriteFrame(data); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func waitSubscribers(t *testing.T, pub *jecho.Publisher, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d, want %d", pub.Subscribers(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func findSub(t *testing.T, pub *jecho.Publisher, namePrefix string) jecho.SubscriptionInfo {
	t.Helper()
	for _, info := range pub.Subscriptions() {
		if strings.HasPrefix(info.ID, namePrefix+"#") {
			return info
		}
	}
	t.Fatalf("no subscription with prefix %q in %+v", namePrefix, pub.Subscriptions())
	return jecho.SubscriptionInfo{}
}

// TestSlowSubscriberDoesNotBlockHealthy is the acceptance scenario: one
// artificially stalled subscriber and two healthy ones. Publish must be
// bounded by queue handoff, every frame must reach the healthy receivers,
// and the stalled peer's overflow must show up as drops, not as latency.
func TestSlowSubscriberDoesNotBlockHealthy(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth:     8,
		OverflowPolicy: jecho.DropOldest,
	})
	_, res1 := memSubscribe(t, mem, pub.Addr(), "healthy-1")
	_, res2 := memSubscribe(t, mem, pub.Addr(), "healthy-2")
	stalledSubscriber(t, mem, pub.Addr(), "stalled")
	waitSubscribers(t, pub, 3)

	const frames = 200
	var worst time.Duration
	start := time.Now()
	for i := 0; i < frames; i++ {
		t0 := time.Now()
		n, err := pub.Publish(imaging.NewFrame(32, 32, int64(i)))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != 3 {
			t.Fatalf("frame %d reached %d subscriptions", i, n)
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
	}
	total := time.Since(start)
	// Queue handoff is microseconds; allow orders of magnitude of CI and
	// race-detector slack while still being far below any socket timeout
	// a stalled peer could impose.
	if worst > 250*time.Millisecond {
		t.Errorf("worst publish latency %v: bounded by the stalled peer, not queue handoff", worst)
	}
	if total > 10*time.Second {
		t.Errorf("publishing %d frames took %v", frames, total)
	}
	waitCount(t, res1, frames)
	waitCount(t, res2, frames)

	stalled := findSub(t, pub, "stalled")
	if stalled.Metrics.Dropped == 0 {
		t.Errorf("stalled subscription dropped nothing: %+v", stalled.Metrics)
	}
	if stalled.Metrics.Published != frames {
		t.Errorf("stalled modulated %d of %d", stalled.Metrics.Published, frames)
	}
	if hw := stalled.Metrics.QueueHighWater; hw == 0 || hw > 8 {
		t.Errorf("stalled queue high-water %d, want 1..8", hw)
	}
	healthy := findSub(t, pub, "healthy-1")
	if healthy.Metrics.Dropped != 0 {
		t.Errorf("healthy subscription dropped %d frames", healthy.Metrics.Dropped)
	}
	t.Logf("worst publish %v over %d frames; stalled dropped %d (queue hw %d)",
		worst, frames, stalled.Metrics.Dropped, stalled.Metrics.QueueHighWater)
}

// TestOverflowDropNewest: with DropNewest the queue keeps the oldest
// backlog and sheds fresh frames once full.
func TestOverflowDropNewest(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth:     4,
		OverflowPolicy: jecho.DropNewest,
	})
	stalledSubscriber(t, mem, pub.Addr(), "stalled")
	waitSubscribers(t, pub, 1)

	const frames = 64
	for i := 0; i < frames; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	m := findSub(t, pub, "stalled").Metrics
	if m.Dropped == 0 {
		t.Fatalf("no drops after %d frames into a depth-4 queue: %+v", frames, m)
	}
	if m.Enqueued+m.Dropped+m.Suppressed != frames {
		t.Errorf("enqueued %d + dropped %d + suppressed %d != %d frames",
			m.Enqueued, m.Dropped, m.Suppressed, frames)
	}
}

// TestOverflowDropOldest: with DropOldest every new frame is admitted and
// old queued frames are evicted, so Enqueued keeps counting while Dropped
// grows too.
func TestOverflowDropOldest(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth:     4,
		OverflowPolicy: jecho.DropOldest,
	})
	stalledSubscriber(t, mem, pub.Addr(), "stalled")
	waitSubscribers(t, pub, 1)

	const frames = 64
	for i := 0; i < frames; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	m := findSub(t, pub, "stalled").Metrics
	if m.Dropped == 0 {
		t.Fatalf("no drops after %d frames into a depth-4 queue: %+v", frames, m)
	}
	if m.Enqueued != frames-m.Suppressed {
		t.Errorf("drop-oldest must admit every frame: enqueued %d, suppressed %d, want %d total",
			m.Enqueued, m.Suppressed, frames)
	}
}

// TestOverflowBlock: the lossless policy really blocks the publisher once
// the stalled peer's queue and transport buffer are full, and a peer death
// releases it with an error rather than a hang.
func TestOverflowBlock(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth:     2,
		OverflowPolicy: jecho.Block,
	})
	_, healthyRes := memSubscribe(t, mem, pub.Addr(), "healthy")
	stalled := stalledSubscriber(t, mem, pub.Addr(), "stalled")
	waitSubscribers(t, pub, 2)

	const frames = 64
	var published atomic.Int64
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			_, err := pub.Publish(imaging.NewFrame(16, 16, int64(i)))
			if err != nil {
				errCh <- err
				return
			}
			published.Add(1)
		}
		errCh <- nil
	}()

	// The publisher must wedge: progress stops well short of all frames.
	deadline := time.Now().Add(5 * time.Second)
	var last int64 = -1
	for {
		cur := published.Load()
		if cur == last && cur > 0 {
			break // no progress across a full poll interval: blocked
		}
		if cur >= frames || time.Now().After(deadline) {
			t.Fatalf("block policy never blocked (published %d/%d)", cur, frames)
		}
		last = cur
		time.Sleep(100 * time.Millisecond)
	}

	// Killing the stalled peer retires its subscription and unblocks the
	// wedged Publish with a subscription-scoped error.
	_ = stalled.Close()
	select {
	case err := <-errCh:
		if err == nil {
			// The blocked publish may also have been dropped onto the
			// retired path without erroring if the retire won the race;
			// either way the publisher must be unwedged. Finish the rest.
			break
		}
		if !strings.Contains(err.Error(), "stalled#") {
			t.Errorf("unblock error does not name the dead subscription: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Publish still wedged after the stalled peer died")
	}
	waitSubscribers(t, pub, 1)
	// Subsequent publishes flow to the healthy subscriber only.
	n, err := pub.Publish(imaging.NewFrame(16, 16, 999))
	if err != nil || n != 1 {
		t.Fatalf("post-retirement publish: n=%d err=%v", n, err)
	}
	waitCount(t, healthyRes, int(published.Load())+1)
}

// TestFeedbackCoalescing: profiling feedback to a slow peer collapses to
// the latest snapshot instead of queueing stale reports. Every staged frame
// is accounted for: sent, coalesced, in a write the stalled peer blocks, or
// pending in the slot, which holds at most one.
func TestFeedbackCoalescing(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth:     4,
		OverflowPolicy: jecho.DropOldest,
		FeedbackEvery:  1, // stage a feedback frame per message
	})
	stalledSubscriber(t, mem, pub.Addr(), "stalled")
	waitSubscribers(t, pub, 1)

	const frames = 50
	for i := 0; i < frames; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	info := findSub(t, pub, "stalled")
	m := info.Metrics
	if m.FeedbackCoalesced == 0 {
		t.Fatalf("no feedback coalescing after %d per-message reports to a stalled peer: %+v", frames, m)
	}
	inFlight, pending := uint64(info.FeedbackInFlight), uint64(info.FeedbackPending)
	t.Logf("staged %d: sent %d, coalesced %d, in flight %d, pending %d",
		m.FeedbackStaged, m.FeedbackSent, m.FeedbackCoalesced, inFlight, pending)
	if got := m.FeedbackSent + m.FeedbackCoalesced + inFlight + pending; got != m.FeedbackStaged {
		t.Errorf("feedback accounting: sent %d + coalesced %d + in flight %d + pending %d = %d, staged %d",
			m.FeedbackSent, m.FeedbackCoalesced, inFlight, pending, got, m.FeedbackStaged)
	}
	if m.FeedbackSent+m.FeedbackCoalesced+inFlight < frames-1 {
		t.Errorf("feedback accounting: sent %d + coalesced %d + in flight %d < %d staged",
			m.FeedbackSent, m.FeedbackCoalesced, inFlight, frames-1)
	}
}

// TestDeadPeerRetiredPromptly: a peer that dies is removed from the
// subscription table without waiting for a Publish to trip over it, and
// later publishes neither pay for nor fail on it.
func TestDeadPeerRetiredPromptly(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth:     4,
		OverflowPolicy: jecho.DropOldest,
	})
	conn := stalledSubscriber(t, mem, pub.Addr(), "doomed")
	waitSubscribers(t, pub, 1)
	if _, err := pub.Publish(imaging.NewFrame(16, 16, 1)); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()
	waitSubscribers(t, pub, 0)
	if n, err := pub.Publish(imaging.NewFrame(16, 16, 2)); err != nil || n != 0 {
		t.Fatalf("publish after peer death: n=%d err=%v", n, err)
	}
}

// TestCleanCloseErrNil: a locally initiated Close is a clean shutdown —
// Err() must be nil (the documented contract) — while a publisher-side
// teardown surfaces as a read error.
func TestCleanCloseErrNil(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{})
	sub, _ := memSubscribe(t, mem, pub.Addr(), "tidy")
	waitSubscribers(t, pub, 1)
	if err := sub.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("Err after clean local close = %v, want nil", err)
	}

	// Counterpart: the publisher dying is NOT clean for its subscriber.
	pub2, mem2 := newMemPublisher(t, jecho.PublisherConfig{})
	sub2, _ := memSubscribe(t, mem2, pub2.Addr(), "orphan")
	waitSubscribers(t, pub2, 1)
	_ = pub2.Close()
	select {
	case <-sub2.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("subscriber did not notice publisher close")
	}
	if sub2.Err() == nil {
		t.Fatal("Err after publisher-side close = nil, want an error")
	}
}

// TestSubscriberMetrics: the receiver side counts demodulated messages,
// received bytes and pushed plan flips.
func TestSubscriberMetrics(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{FeedbackEvery: 2})
	sub, res := memSubscribe(t, mem, pub.Addr(), "meter")
	waitSubscribers(t, pub, 1)
	const frames = 20
	for i := 0; i < frames; i++ {
		size := 16
		if i >= frames/2 {
			size = 220 // large frames push the split point around
		}
		if _, err := pub.Publish(imaging.NewFrame(size, size, int64(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, res, frames)
	m := sub.Metrics()
	if m.Published != frames {
		t.Errorf("subscriber processed %d, want %d", m.Published, frames)
	}
	if m.BytesOnWire == 0 {
		t.Error("subscriber counted no received bytes")
	}
	pm := findSub(t, pub, "meter").Metrics
	if pm.BytesOnWire == 0 {
		t.Error("publisher counted no sent bytes")
	}
	if pm.Published != frames {
		t.Errorf("publisher modulated %d, want %d", pm.Published, frames)
	}
}

// BenchmarkPublishWithStalledPeer measures the per-publish cost with one
// stalled and one healthy subscription: the number that must stay in
// handoff territory regardless of the stalled peer.
func BenchmarkPublishWithStalledPeer(b *testing.B) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Addr:           "",
		Transport:      mem,
		Builtins:       reg,
		QueueDepth:     8,
		OverflowPolicy: jecho.DropOldest,
		Logf:           func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pub.Close()
	conn, err := mem.Dial(pub.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	data, err := wire.Marshal(&wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: "stalled",
		Handler:    imaging.HandlerName,
		Source:     imaging.HandlerSource(64),
		CostModel:  costmodel.DataSizeName,
		Natives:    []string{"displayImage"},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := conn.WriteFrame(data); err != nil {
		b.Fatal(err)
	}
	for pub.Subscribers() != 1 {
		time.Sleep(time.Millisecond)
	}
	frame := imaging.NewFrame(32, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Publish(frame); err != nil {
			b.Fatal(err)
		}
	}
}
