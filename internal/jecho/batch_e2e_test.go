package jecho_test

import (
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// awaitEventsSent is the publisher-side fence for the send accounting: the
// sender goroutine counts a frame only after its write returns, so a peer
// can hold the last frame before the publisher has counted it. It waits
// until the subscription has counted n events sent (or times out) and
// returns its metrics.
func awaitEventsSent(t *testing.T, pub *jecho.Publisher, name string, n uint64) jecho.ChannelMetrics {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		m := findSub(t, pub, name).Metrics
		if m.EventsSent >= n || time.Now().After(deadline) {
			return m
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchedDeliveryEndToEnd: with batching enabled and a v4 subscriber, a
// publish burst arrives complete, some of it coalesced into batch frames,
// and the send accounting balances once the channel quiesces.
func TestBatchedDeliveryEndToEnd(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth: 64,
		BatchBytes: 64 << 10,
		BatchDelay: 5 * time.Millisecond,
	})
	sub, res := memSubscribe(t, mem, pub.Addr(), "batched")
	waitSubscribers(t, pub, 1)

	const events = 100
	for i := 0; i < events; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	waitCount(t, res, events)

	m := awaitEventsSent(t, pub, "batched", events)
	if m.EventsSent != events {
		t.Errorf("EventsSent = %d, want %d", m.EventsSent, events)
	}
	if m.Enqueued != m.EventsSent+m.Dropped {
		t.Errorf("enqueued %d != sent %d + dropped %d", m.Enqueued, m.EventsSent, m.Dropped)
	}
	if m.BatchesSent == 0 || m.BatchedEvents < 2 {
		t.Errorf("burst of %d produced %d batches carrying %d events; expected coalescing",
			events, m.BatchesSent, m.BatchedEvents)
	}
	sm := sub.Metrics()
	if sm.BatchesReceived != m.BatchesSent {
		t.Errorf("subscriber unpacked %d batches, publisher sent %d",
			sm.BatchesReceived, m.BatchesSent)
	}
	if sm.Published != events {
		t.Errorf("subscriber demodulated %d, want %d", sm.Published, events)
	}
}

// TestV3SubscriberGetsUnbatchedFrames: a publisher with batching enabled
// must downgrade for a subscriber that announced protocol v3 — every event
// arrives in its own frame and no batch frame ever reaches the peer.
func TestV3SubscriberGetsUnbatchedFrames(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		QueueDepth: 64,
		BatchBytes: 64 << 10,
		BatchDelay: 5 * time.Millisecond,
	})
	conn, err := mem.Dial(pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := wire.Marshal(&wire.Subscribe{
		Protocol:   wire.MinProtocolVersion, // v3: predates batch frames
		Subscriber: "legacy",
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
	waitSubscribers(t, pub, 1)

	const events = 30
	for i := 0; i < events; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	deadline := time.Now().Add(10 * time.Second)
	for got < events {
		_ = conn.SetReadDeadline(deadline)
		frame, err := conn.ReadFrame()
		if err != nil {
			t.Fatalf("after %d of %d events: %v", got, events, err)
		}
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		switch msg.(type) {
		case *wire.Batch:
			t.Fatal("publisher sent a batch frame to a v3 subscriber")
		case *wire.Raw, *wire.Continuation:
			got++
		default:
			// Heartbeats and feedback are fine; skip them.
		}
	}
	m := awaitEventsSent(t, pub, "legacy", events)
	if m.BatchesSent != 0 {
		t.Errorf("BatchesSent = %d for a v3 peer, want 0", m.BatchesSent)
	}
	if m.EventsSent != events {
		t.Errorf("EventsSent = %d, want %d", m.EventsSent, events)
	}
}

// TestBatchEntryFaultContainment: one corrupt entry (and one smuggled
// nested batch) inside a batch frame must not poison its neighbours — the
// valid entries demodulate, the bad ones are counted and the corrupt one
// quarantined, exactly the per-frame semantics applied per-entry.
func TestBatchEntryFaultContainment(t *testing.T) {
	mem := transport.NewMem()
	ln, err := mem.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pubConn := make(chan transport.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if _, err := conn.ReadFrame(); err != nil { // Subscribe handshake
			return
		}
		pubConn <- conn
		for { // drain plans/heartbeats/NACKs so the peer never blocks
			if _, err := conn.ReadFrame(); err != nil {
				return
			}
		}
	}()

	reg, _ := imaging.Builtins()
	res := &results{}
	sub, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:              ln.Addr(),
		Transport:         mem,
		Name:              "contained",
		Source:            imaging.HandlerSource(64),
		Handler:           imaging.HandlerName,
		CostModel:         costmodel.DataSizeName,
		Natives:           []string{"displayImage"},
		Builtins:          reg,
		Environment:       costmodel.DefaultEnvironment(),
		OnResult:          res.add,
		HeartbeatInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sub.Close() })

	good1, err := wire.Marshal(&wire.Raw{Handler: imaging.HandlerName, Seq: 1, Event: imaging.NewFrame(8, 8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	good2, err := wire.Marshal(&wire.Raw{Handler: imaging.HandlerName, Seq: 2, Event: imaging.NewFrame(8, 8, 2)})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte{0xEE, 0x01, 0x02}
	nested := wire.AppendBatch(nil, [][]byte{good1})
	batch := wire.AppendBatch(nil, [][]byte{good1, corrupt, nested, good2})

	conn := <-pubConn
	if err := conn.WriteFrame(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for res.count() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("demodulated %d of 2 valid entries", res.count())
		}
		time.Sleep(time.Millisecond)
	}

	m := sub.Metrics()
	if m.BatchesReceived != 1 {
		t.Errorf("BatchesReceived = %d, want 1", m.BatchesReceived)
	}
	if m.Published != 2 {
		t.Errorf("Published = %d, want 2", m.Published)
	}
	if m.DecodeFailures != 2 {
		t.Errorf("DecodeFailures = %d, want 2 (corrupt entry + nested batch)", m.DecodeFailures)
	}
	if m.DeadLettered != 1 {
		t.Errorf("DeadLettered = %d, want 1 (the corrupt entry)", m.DeadLettered)
	}
}

// TestControlBytesSeparated: a channel that is quiet except for heartbeats
// must report zero event bytes — the bytes-saved ratio's denominator — while
// the control counter absorbs the liveness traffic.
func TestControlBytesSeparated(t *testing.T) {
	pub, mem := newMemPublisher(t, jecho.PublisherConfig{
		HeartbeatInterval: 20 * time.Millisecond,
	})
	sub, _ := memSubscribe(t, mem, pub.Addr(), "quiet")
	waitSubscribers(t, pub, 1)

	deadline := time.Now().Add(5 * time.Second)
	for findSub(t, pub, "quiet").Metrics.HeartbeatsSent == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no heartbeat sent")
		}
		time.Sleep(time.Millisecond)
	}
	m := findSub(t, pub, "quiet").Metrics
	if m.BytesOnWire != 0 {
		t.Errorf("publisher event bytes = %d on a quiet channel, want 0", m.BytesOnWire)
	}
	if m.ControlBytesOnWire == 0 {
		t.Error("publisher control bytes = 0 despite heartbeats")
	}
	sm := sub.Metrics()
	if sm.BytesOnWire != 0 {
		t.Errorf("subscriber event bytes = %d on a quiet channel, want 0", sm.BytesOnWire)
	}
}
