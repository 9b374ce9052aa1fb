package jecho

import (
	"errors"
	"sync"
	"testing"
	"time"

	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// stubConn is a transport.Conn for exercising the send pipeline in
// isolation: writes optionally block on a gate until the test releases
// them, and every written frame is recorded.
type stubConn struct {
	mu     sync.Mutex
	frames [][]byte
	gate   chan struct{} // nil = writes never block
	closed chan struct{}
	once   sync.Once
}

func newStubConn(gated bool) *stubConn {
	c := &stubConn{closed: make(chan struct{})}
	if gated {
		c.gate = make(chan struct{})
	}
	return c
}

func (c *stubConn) release() { close(c.gate) }

func (c *stubConn) WriteFrame(payload []byte) error {
	if c.gate != nil {
		select {
		case <-c.gate:
		case <-c.closed:
			return errors.New("stubConn: closed")
		}
	}
	c.mu.Lock()
	c.frames = append(c.frames, append([]byte(nil), payload...))
	c.mu.Unlock()
	return nil
}

func (c *stubConn) ReadFrame() ([]byte, error) {
	<-c.closed
	return nil, errors.New("stubConn: closed")
}

func (c *stubConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *stubConn) SetReadDeadline(time.Time) error  { return nil }
func (c *stubConn) SetWriteDeadline(time.Time) error { return nil }
func (c *stubConn) LocalAddr() string                { return "stub:local" }
func (c *stubConn) RemoteAddr() string               { return "stub:remote" }

func (c *stubConn) written() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.frames))
	copy(out, c.frames)
	return out
}

// newTestPipeline builds a best-effort pipeline over conn on a fresh log of
// the given depth and policy, attached and not started.
func newTestPipeline(conn transport.Conn, depth int, policy OverflowPolicy, batch batchConfig, m *channelMetrics) *sendPipeline {
	p := newSendPipeline(conn, newSendLog(depth, policy, -1), supervision{}, batch, m, nil)
	p.log.attach(p, 0)
	return p
}

// checkAccounting asserts the shutdown identity: every frame accepted into
// the queue was either written or counted dropped once the pipeline is
// quiescent.
func checkAccounting(t *testing.T, m *channelMetrics) {
	t.Helper()
	snap := m.snapshot()
	if snap.Enqueued != snap.EventsSent+snap.Dropped {
		t.Errorf("enqueued %d != sent %d + dropped %d",
			snap.Enqueued, snap.EventsSent, snap.Dropped)
	}
}

// TestShutdownDrainAccounting: frames still queued when the sender shuts
// down must be counted dropped, not leak as permanently "enqueued". One
// frame is in flight (blocked in WriteFrame) at shutdown; it completes and
// counts as sent, and the detach counts the rest of the queue as drops.
func TestShutdownDrainAccounting(t *testing.T) {
	conn := newStubConn(true)
	m := &channelMetrics{}
	p := newTestPipeline(conn, 8, Block, batchConfig{}, m)
	go p.run()

	// The sender takes the first frame and blocks in WriteFrame; the next 8
	// fill the queue.
	for i := 0; i < 9; i++ {
		if err := p.log.append(p, wire.NewFrame([]byte{byte(i)})); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	p.shutdown()
	conn.release()
	<-p.done

	checkAccounting(t, m)
	snap := m.snapshot()
	if snap.Enqueued != 9 {
		t.Fatalf("enqueued = %d, want 9", snap.Enqueued)
	}
	if snap.EventsSent != 1 || snap.Dropped != 8 {
		t.Errorf("sent %d dropped %d, want 1 sent (the in-flight frame) and 8 dropped",
			snap.EventsSent, snap.Dropped)
	}
}

// TestDropOldestConcurrentAccounting hammers a pipeline whose writer is
// wedged with concurrent publishers under DropOldest. Run with -race. Every
// append must return promptly (each one moves the cursor past the oldest
// queued entry instead of waiting) and the drop accounting must balance
// exactly after shutdown.
func TestDropOldestConcurrentAccounting(t *testing.T) {
	conn := newStubConn(true)
	m := &channelMetrics{}
	p := newTestPipeline(conn, 4, DropOldest, batchConfig{}, m)
	go p.run()

	const publishers = 8
	const perPublisher = 500
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if err := p.log.append(p, wire.NewFrame([]byte{1, 2, 3})); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("livelock: concurrent DropOldest appends did not finish")
	}

	p.shutdown()
	conn.release()
	<-p.done

	snap := m.snapshot()
	if want := uint64(publishers * perPublisher); snap.Enqueued != want {
		t.Fatalf("enqueued = %d, want %d", snap.Enqueued, want)
	}
	checkAccounting(t, m)
}

// TestConcurrentEnqueueDuringShutdown races appenders against shutdown
// itself: whichever side of the detach each frame lands on, the accounting
// identity must hold once everything quiesces. Run with -race.
func TestConcurrentEnqueueDuringShutdown(t *testing.T) {
	for round := 0; round < 50; round++ {
		conn := newStubConn(false)
		m := &channelMetrics{}
		p := newTestPipeline(conn, 2, DropOldest, batchConfig{}, m)
		go p.run()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := p.log.append(p, wire.NewFrame([]byte{9})); err != nil {
						return // retired mid-loop: expected
					}
				}
			}()
		}
		p.shutdown()
		wg.Wait()
		<-p.done
		checkAccounting(t, m)
	}
}

// TestBatchCoalescing: a queue backlog leaves as one batch frame whose
// entries are the queued frames in order; a lone frame goes unwrapped.
func TestBatchCoalescing(t *testing.T) {
	conn := newStubConn(false)
	m := &channelMetrics{}
	p := newTestPipeline(conn, 16, Block, batchConfig{Bytes: 1 << 16}, m)

	// Preload the log before the sender starts so its first take sees a
	// backlog.
	want := [][]byte{{1}, {2, 2}, {3, 3, 3}, {4}, {5}}
	for _, f := range want {
		if err := p.log.append(p, wire.NewFrame(f)); err != nil {
			t.Fatal(err)
		}
	}
	go p.run()
	deadline := time.Now().Add(5 * time.Second)
	for len(conn.written()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frame written")
		}
		time.Sleep(time.Millisecond)
	}
	p.shutdown()
	<-p.done

	frames := conn.written()
	if len(frames) != 1 {
		t.Fatalf("wrote %d frames, want 1 batch", len(frames))
	}
	msg, err := wire.Unmarshal(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	b, ok := msg.(*wire.Batch)
	if !ok {
		t.Fatalf("wrote %T, want *wire.Batch", msg)
	}
	if len(b.Entries) != len(want) {
		t.Fatalf("batch carried %d entries, want %d", len(b.Entries), len(want))
	}
	for i, e := range b.Entries {
		if string(e) != string(want[i]) {
			t.Errorf("entry %d = %v, want %v", i, e, want[i])
		}
	}
	snap := m.snapshot()
	if snap.EventsSent != 5 || snap.BatchesSent != 1 || snap.BatchedEvents != 5 {
		t.Errorf("sent=%d batches=%d batched=%d, want 5/1/5",
			snap.EventsSent, snap.BatchesSent, snap.BatchedEvents)
	}
	checkAccounting(t, m)

	// A single queued frame must go out unwrapped even with batching on.
	conn2 := newStubConn(false)
	m2 := &channelMetrics{}
	p2 := newTestPipeline(conn2, 16, Block, batchConfig{Bytes: 1 << 16}, m2)
	if err := p2.log.append(p2, wire.NewFrame([]byte{7, 7})); err != nil {
		t.Fatal(err)
	}
	go p2.run()
	deadline = time.Now().Add(5 * time.Second)
	for len(conn2.written()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no frame written")
		}
		time.Sleep(time.Millisecond)
	}
	p2.shutdown()
	<-p2.done
	frames = conn2.written()
	if len(frames) != 1 || string(frames[0]) != string([]byte{7, 7}) {
		t.Fatalf("lone frame arrived as %v, want unwrapped {7,7}", frames)
	}
	if snap := m2.snapshot(); snap.BatchesSent != 0 || snap.EventsSent != 1 {
		t.Errorf("lone frame: batches=%d sent=%d, want 0/1", snap.BatchesSent, snap.EventsSent)
	}
}

// TestBatchBytesBudget: coalescing stops once the payload budget is
// reached, so a burst splits into multiple batches instead of one
// arbitrarily large frame.
func TestBatchBytesBudget(t *testing.T) {
	conn := newStubConn(true)
	m := &channelMetrics{}
	// Budget of 8 bytes: three 4-byte frames = first two coalesce (4, then
	// 8 ≥ 8 stops the fill), third goes alone.
	p := newTestPipeline(conn, 16, Block, batchConfig{Bytes: 8}, m)
	for i := 0; i < 3; i++ {
		if err := p.log.append(p, wire.NewFrame([]byte{byte(i), 0, 0, 0})); err != nil {
			t.Fatal(err)
		}
	}
	go p.run()
	conn.release()
	deadline := time.Now().Add(5 * time.Second)
	for len(conn.written()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("wrote %d frames, want 2", len(conn.written()))
		}
		time.Sleep(time.Millisecond)
	}
	p.shutdown()
	<-p.done
	frames := conn.written()
	if len(frames) != 2 {
		t.Fatalf("wrote %d frames, want 2", len(frames))
	}
	first, err := wire.Unmarshal(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := first.(*wire.Batch); !ok || len(b.Entries) != 2 {
		t.Fatalf("first frame %T (%v), want batch of 2", first, first)
	}
	if string(frames[1]) != string([]byte{2, 0, 0, 0}) {
		t.Errorf("second frame = %v, want the third event unwrapped", frames[1])
	}
	checkAccounting(t, m)
}

// lastWordConn is a stubConn whose write of one chosen payload retires the
// pipeline as it returns: the peer's connection is torn down right after
// the frame reached the wire.
type lastWordConn struct {
	*stubConn
	last byte
	pipe *sendPipeline
}

func (c *lastWordConn) WriteFrame(payload []byte) error {
	err := c.stubConn.WriteFrame(payload)
	if len(payload) == 1 && payload[0] == c.last {
		c.pipe.shutdown()
	}
	return err
}

// TestDeliveredFrameNotReportedRetired is the best-effort counterpart of
// TestSwallowedSeqEventResumes: instead of a link that loses a frame, a
// link that delivers one and then dies. An append parked on a full Block
// queue gets its position when the sender takes the entry ahead of it; the
// sender writes both and the pipeline retires, possibly before the
// appender returns. That frame was delivered, so append must report
// success, and the identity Enqueued == EventsSent + Dropped must hold.
// Whether a round parks the appender before the sender starts is up to the
// scheduler, so the scenario repeats; no round may misreport.
func TestDeliveredFrameNotReportedRetired(t *testing.T) {
	const first, last = 1, 2
	for round := 0; round < 200; round++ {
		m := &channelMetrics{}
		conn := &lastWordConn{stubConn: newStubConn(false), last: last}
		p := newTestPipeline(conn, 1, Block, batchConfig{}, m)
		conn.pipe = p
		if err := p.log.append(p, wire.NewFrame([]byte{first})); err != nil {
			t.Fatal(err)
		}
		go p.run()
		errc := make(chan error, 1)
		go func() { errc <- p.log.append(p, wire.NewFrame([]byte{last})) }()
		err := <-errc
		<-p.done

		delivered := false
		for _, f := range conn.written() {
			delivered = delivered || (len(f) == 1 && f[0] == last)
		}
		if delivered && err != nil {
			t.Fatalf("round %d: the frame reached the wire, yet append returned %v", round, err)
		}
		if !delivered && !errors.Is(err, errRetired) {
			t.Fatalf("round %d: the frame never reached the wire, yet append returned %v", round, err)
		}
		checkAccounting(t, m)
	}
}
