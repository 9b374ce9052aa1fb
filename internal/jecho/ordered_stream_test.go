package jecho_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/partition"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// tapTransport wraps a transport and inspects every frame its dialled
// connections read: it counts Lost notices and can swallow one SeqEvent,
// chosen by sequence number, as a broken link would.
type tapTransport struct {
	transport.Transport
	lost atomic.Int64
	drop atomic.Uint64 // seq of the one SeqEvent to swallow; 0 = none
}

func (t *tapTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: t}, nil
}

type tapConn struct {
	transport.Conn
	tap *tapTransport
}

func (c *tapConn) ReadFrame() ([]byte, error) {
	for {
		data, err := c.Conn.ReadFrame()
		if err != nil || len(data) == 0 {
			return data, err
		}
		switch wire.MsgType(data[0]) {
		case wire.MsgLost:
			c.tap.lost.Add(1)
		case wire.MsgSeqEvent:
			msg, err := wire.Unmarshal(data)
			if err != nil {
				return data, nil
			}
			if seq := msg.(*wire.SeqEvent).Seq; seq != 0 && c.tap.drop.CompareAndSwap(seq, 0) {
				continue
			}
		}
		return data, nil
	}
}

// eventually polls cond until it holds, failing with the message built by
// describe after ten seconds.
func eventually(t *testing.T, cond func() bool, describe func() string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(describe())
		}
		time.Sleep(time.Millisecond)
	}
}

// orderedPublisher starts a publisher on tr with fast heartbeats and a
// silence window long enough for a deliberately stalled handler.
func orderedPublisher(t *testing.T, tr transport.Transport, cfg jecho.PublisherConfig) *jecho.Publisher {
	t.Helper()
	cfg.HeartbeatInterval = 2 * time.Millisecond
	cfg.HeartbeatMisses = 5000
	cfg.WriteTimeout = 10 * time.Second
	return chaosPublisher(t, tr, cfg)
}

// orderedSubscribe attaches an at-least-once subscriber through tap and
// waits for its session. Its plan stays still: these tests are about the
// stream, not the split.
func orderedSubscribe(t *testing.T, tap *tapTransport, pub *jecho.Publisher, cfg jecho.SubscriberConfig) *jecho.Subscriber {
	t.Helper()
	cfg.Reliability = jecho.AtLeastOnce
	cfg.ReconfigEvery = 1 << 30
	cfg.DiffThreshold = 1e9
	cfg.HeartbeatInterval = 2 * time.Millisecond
	cfg.HeartbeatMisses = 5000
	cfg.WriteTimeout = 10 * time.Second
	sub := chaosSubscribe(t, tap, pub.Addr(), cfg)
	eventually(t, func() bool { _, ok := theSession(pub); return ok },
		func() string { return "subscription never registered" })
	return sub
}

// publishN publishes n small frames numbered from *next.
func publishN(t *testing.T, pub *jecho.Publisher, next *int64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, *next)); err != nil {
			t.Error(err)
			return
		}
		*next++
	}
}

// TestBlockedSubscriberNoLiveRepair is the regression test of the replay
// storm. Under Block, a subscriber whose handler stalls holds the
// publisher at a full queue while the tiny ring evicts frames that were
// sent but not yet acked, and the subscriber's heartbeats keep repeating
// one ack. On an ordered link none of that is loss: once the handler
// resumes, every event arrives exactly once, nothing is replayed or
// declared Lost, and the publisher writes one event frame per staged event.
func TestBlockedSubscriberNoLiveRepair(t *testing.T) {
	tap := &tapTransport{Transport: transport.NewMem()}
	pub := orderedPublisher(t, tap, jecho.PublisherConfig{
		QueueDepth:      8,
		ReplayRingBytes: 1024, // a few 16x16 frames
	})
	gate := make(chan struct{})
	sub := orderedSubscribe(t, tap, pub, jecho.SubscriberConfig{
		Name:     "gated",
		AckEvery: 4,
		OnResult: func(*partition.Result) { <-gate },
	})

	const events = 200
	var next int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		publishN(t, pub, &next, events)
	}()
	// Let the publisher fill the queue and the link and block, while the
	// subscriber's heartbeats repeat the same ack many times over.
	time.Sleep(200 * time.Millisecond)
	close(gate)
	<-done

	info, _ := theSession(pub)
	eventually(t, func() bool {
		info, _ = theSession(pub)
		return sub.Processed() == events && info.Metrics.EventsSent == info.StagedSeq
	}, func() string {
		return fmt.Sprintf("processed %d of %d; staged %d, event frames written %d",
			sub.Processed(), events, info.StagedSeq, info.Metrics.EventsSent)
	})
	m := sub.Metrics()
	if info.StagedSeq != events {
		t.Errorf("staged %d events, published %d", info.StagedSeq, events)
	}
	if n := tap.lost.Load(); n != 0 {
		t.Errorf("%d Lost notices on an ordered link under Block", n)
	}
	if info.Metrics.Replayed != 0 || info.Metrics.DataLoss != 0 {
		t.Errorf("publisher replayed %d and declared %d lost", info.Metrics.Replayed, info.Metrics.DataLoss)
	}
	if m.DuplicatesDropped != 0 || m.DataLoss != 0 {
		t.Errorf("subscriber dropped %d duplicates and counted %d lost", m.DuplicatesDropped, m.DataLoss)
	}
	if info.Metrics.RingEvictions == 0 {
		t.Error("the ring never evicted: the stall did not exercise eviction of unacked frames")
	}
}

// TestDropOldestDeclaresSkipsExactly: under DropOldest a subscriber slower
// than the publisher loses the events its queue evicted. The sender
// declares each skip in order, so the publisher's declared DataLoss equals
// the subscriber's counted DataLoss exactly, and
// staged == processed + dataLoss.
func TestDropOldestDeclaresSkipsExactly(t *testing.T) {
	tap := &tapTransport{Transport: transport.NewMem()}
	pub := orderedPublisher(t, tap, jecho.PublisherConfig{
		QueueDepth:     4,
		OverflowPolicy: jecho.DropOldest,
	})
	sub := orderedSubscribe(t, tap, pub, jecho.SubscriberConfig{
		Name:     "slow-oldest",
		OnResult: func(*partition.Result) { time.Sleep(200 * time.Microsecond) },
	})

	const events = 300
	var next int64
	publishN(t, pub, &next, events)

	var info jecho.SubscriptionInfo
	eventually(t, func() bool {
		info, _ = theSession(pub)
		m := sub.Metrics()
		return info.StagedSeq == sub.Processed()+m.DataLoss && info.Metrics.DataLoss == m.DataLoss
	}, func() string {
		return fmt.Sprintf("staged %d, processed %d, subscriber DataLoss %d, publisher DataLoss %d",
			info.StagedSeq, sub.Processed(), sub.Metrics().DataLoss, info.Metrics.DataLoss)
	})
	m := sub.Metrics()
	if info.StagedSeq != events {
		t.Errorf("staged %d of %d events: DropOldest must sequence every publish", info.StagedSeq, events)
	}
	if m.DataLoss == 0 || tap.lost.Load() == 0 {
		t.Errorf("no loss declared (DataLoss %d, Lost notices %d): the queue never overflowed", m.DataLoss, tap.lost.Load())
	}
	if m.Reconnects != 0 || m.DuplicatesDropped != 0 {
		t.Errorf("reconnects %d, duplicates %d on a live ordered link", m.Reconnects, m.DuplicatesDropped)
	}
}

// TestDropNewestRefusesBeforeSequencing: under DropNewest a full queue
// refuses the event before it gets a seq, so a refusal leaves no gap and
// no Lost notice: staged + dropped == published, and the subscriber
// processes every staged event.
func TestDropNewestRefusesBeforeSequencing(t *testing.T) {
	tap := &tapTransport{Transport: transport.NewMem()}
	pub := orderedPublisher(t, tap, jecho.PublisherConfig{
		QueueDepth:     4,
		OverflowPolicy: jecho.DropNewest,
	})
	sub := orderedSubscribe(t, tap, pub, jecho.SubscriberConfig{
		Name:     "slow-newest",
		OnResult: func(*partition.Result) { time.Sleep(200 * time.Microsecond) },
	})

	const events = 300
	var next int64
	publishN(t, pub, &next, events)

	var info jecho.SubscriptionInfo
	eventually(t, func() bool {
		info, _ = theSession(pub)
		return sub.Processed() == info.StagedSeq
	}, func() string {
		return fmt.Sprintf("processed %d of %d staged", sub.Processed(), info.StagedSeq)
	})
	m := sub.Metrics()
	if got := info.StagedSeq + info.Metrics.Dropped; got != events || info.Metrics.Published != events {
		t.Errorf("staged %d + dropped %d = %d, published %d (metric %d)",
			info.StagedSeq, info.Metrics.Dropped, got, events, info.Metrics.Published)
	}
	if info.Metrics.Dropped == 0 {
		t.Error("nothing dropped: the queue never overflowed")
	}
	if n := tap.lost.Load(); n != 0 || m.DataLoss != 0 || info.Metrics.DataLoss != 0 {
		t.Errorf("Lost notices %d, DataLoss subscriber %d publisher %d; want none", n, m.DataLoss, info.Metrics.DataLoss)
	}
}

// TestSwallowedSeqEventResumes: a link that loses one mid-stream SeqEvent
// is broken. The subscriber sees the next seq arrive early, closes the
// connection and resumes from its last contiguous seq; the publisher
// replays the rest from its ring, so every event is processed exactly
// once and nothing counts as lost.
func TestSwallowedSeqEventResumes(t *testing.T) {
	tap := &tapTransport{Transport: transport.NewMem()}
	tap.drop.Store(20)
	pub := orderedPublisher(t, tap, jecho.PublisherConfig{})
	sub := orderedSubscribe(t, tap, pub, jecho.SubscriberConfig{
		Name:        "swallowed",
		AckEvery:    4,
		Resubscribe: true,
	})
	before, _ := theSession(pub)

	var next int64
	publishN(t, pub, &next, 20) // seq 20 is swallowed
	eventually(t, func() bool { return sub.Processed() == 19 },
		func() string { return fmt.Sprintf("processed %d, want 19", sub.Processed()) })
	publishN(t, pub, &next, 1) // seq 21 reveals the gap
	after := lossSession(t, pub, before.ID)
	publishN(t, pub, &next, 19)

	const events = 40
	eventually(t, func() bool {
		info, _ := theSession(pub)
		return sub.Processed() == events && info.StagedSeq == events
	}, func() string {
		info, _ := theSession(pub)
		return fmt.Sprintf("processed %d, staged %d, want %d", sub.Processed(), info.StagedSeq, events)
	})
	m := sub.Metrics()
	if m.Reconnects != 1 {
		t.Errorf("reconnects = %d, want 1", m.Reconnects)
	}
	if m.DataLoss != 0 || m.DuplicatesDropped != 0 || tap.lost.Load() != 0 {
		t.Errorf("DataLoss %d, duplicates %d, Lost notices %d; want none", m.DataLoss, m.DuplicatesDropped, tap.lost.Load())
	}
	if info, _ := theSession(pub); info.ID != after.ID || info.Metrics.Replayed != 2 {
		t.Errorf("resumed session %s replayed %d frames, want seqs 20 and 21", info.ID, info.Metrics.Replayed)
	}
}

// TestCloseUnderAckTrafficLogsNothing: a subscriber closed while it is
// acking every event has writes racing its own teardown; those failures
// are the expected end of a clean close and must not be logged.
func TestCloseUnderAckTrafficLogsNothing(t *testing.T) {
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{})
	reg, _ := imaging.Builtins()
	var mu sync.Mutex
	var lines []string
	for round := 0; round < 10; round++ {
		sub, err := jecho.Subscribe(jecho.SubscriberConfig{
			Addr:        pub.Addr(),
			Transport:   mem,
			Name:        fmt.Sprintf("closer-%d", round),
			Source:      imaging.HandlerSource(64),
			Handler:     imaging.HandlerName,
			CostModel:   costmodel.DataSizeName,
			Natives:     []string{"displayImage"},
			Builtins:    reg,
			Environment: costmodel.DefaultEnvironment(),
			Reliability: jecho.AtLeastOnce,
			AckEvery:    1,
			Logf: func(format string, args ...any) {
				mu.Lock()
				lines = append(lines, fmt.Sprintf(format, args...))
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = pub.Publish(imaging.NewFrame(16, 16, i))
			}
		}()
		eventually(t, func() bool { return sub.Processed() > 50 },
			func() string { return fmt.Sprintf("round %d: processed %d", round, sub.Processed()) })
		if err := sub.Close(); err != nil {
			t.Errorf("round %d: close: %v", round, err)
		}
		close(stop)
		<-done
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 0 {
		t.Fatalf("a clean close logged %d lines, first: %s", len(lines), lines[0])
	}
}
