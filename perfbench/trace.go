package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/obsv"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// tracing holds what the traced run records from outside the program:
// wrapped transports on both ends, timed builtins, timed Publish calls and
// the min-cut events of the subscribers' obsv.Tracer.
type tracing struct {
	pub  *wrapTransport
	subs []*wrapTransport

	sendBusy atomic.Int64 // ns inside builtins at the publisher
	recvBusy atomic.Int64 // ns inside builtins at the subscribers

	tracer   *obsv.Tracer
	minCuts  atomic.Int64
	lostEvts atomic.Int64
	stopSub  func()
	consumer sync.WaitGroup

	// publishNS are the paced phase's Publish call durations; pubReturn[k]
	// is the clock when Publish of event k returned, for paced-range k.
	publishNS []int64
	pubReturn []int64
	// snaps are Subscriber.Stats() snapshots for the selection replay.
	snaps []map[int32]costmodel.Stat

	goroutinesPeak atomic.Int64
}

func newTracing(subs int) *tracing {
	tr := &tracing{pub: &wrapTransport{inner: transport.TCP{}}}
	for i := 0; i < subs; i++ {
		tr.subs = append(tr.subs, &wrapTransport{inner: transport.TCP{}})
	}
	tr.tracer = obsv.NewTracer(64)
	// The buffer absorbs bursts of per-event trace records between the
	// consumer's wake-ups; gaps in Seq are counted as lost.
	events, cancel := tr.tracer.Subscribe(1 << 14)
	tr.stopSub = cancel
	tr.consumer.Add(1)
	go func() {
		defer tr.consumer.Done()
		var last uint64
		for e := range events {
			if last != 0 && e.Seq != last+1 {
				tr.lostEvts.Add(int64(e.Seq - last - 1))
			}
			last = e.Seq
			if e.Kind == obsv.EvMinCut {
				tr.minCuts.Add(1)
			}
		}
	}()
	return tr
}

// reset forgets the connections and records of earlier channels, so the
// per-layer figures describe the traced round's channel only.
func (tr *tracing) reset() {
	tr.pub.reset()
	for _, s := range tr.subs {
		s.reset()
	}
	tr.publishNS = tr.publishNS[:0]
	tr.snaps = nil
}

func (tr *tracing) close() {
	tr.stopSub()
	tr.consumer.Wait()
}

// sampleGoroutines records the goroutine count every few milliseconds until
// stop is closed; the caller waits on the returned group.
func (tr *tracing) sampleGoroutines(stop <-chan struct{}) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > tr.goroutinesPeak.Load() {
				tr.goroutinesPeak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return &wg
}

// wrapTransport wraps every connection it makes or accepts in a wrapConn.
type wrapTransport struct {
	inner transport.Transport
	mu    sync.Mutex
	conns []*wrapConn
}

func (t *wrapTransport) Listen(addr string) (transport.Listener, error) {
	ln, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &wrapListener{Listener: ln, t: t}, nil
}

func (t *wrapTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *wrapTransport) wrap(c transport.Conn) *wrapConn {
	w := &wrapConn{Conn: c, first: -1}
	t.mu.Lock()
	t.conns = append(t.conns, w)
	t.mu.Unlock()
	return w
}

func (t *wrapTransport) reset() {
	t.mu.Lock()
	t.conns = nil
	t.mu.Unlock()
}

func (t *wrapTransport) snapshot() []*wrapConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*wrapConn(nil), t.conns...)
}

// counters sums the traffic counters of every connection.
func (t *wrapTransport) counters() (writes, written, read int64) {
	for _, c := range t.snapshot() {
		writes += c.writes.Load()
		written += c.written.Load()
		read += c.read.Load()
	}
	return
}

type wrapListener struct {
	transport.Listener
	t *wrapTransport
}

func (l *wrapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c), nil
}

// wrapConn counts frames and bytes (with the length-prefix header, as the
// channel metrics count them) and timestamps event frames. Event frames are
// matched to events by order: each connection carries events FIFO.
type wrapConn struct {
	transport.Conn
	writes  atomic.Int64
	written atomic.Int64
	read    atomic.Int64

	mu sync.Mutex
	// first is the size of the first frame written: the Subscribe handshake
	// on a subscriber, the StreamStart on an at-least-once publisher. Both
	// are written outside the channel metrics.
	first        int64
	eventWriteAt []int64 // clock at WriteFrame entry, per event frame
	eventReadAt  []int64 // clock at ReadFrame return, per event frame
	writeNS      []int64 // WriteFrame durations
}

func isEvent(frame []byte) bool {
	if len(frame) == 0 {
		return false
	}
	switch wire.MsgType(frame[0]) {
	case wire.MsgRaw, wire.MsgContinuation, wire.MsgSeqEvent, wire.MsgBatch:
		return true
	}
	return false
}

func (c *wrapConn) WriteFrame(payload []byte) error {
	start := clock()
	err := c.Conn.WriteFrame(payload)
	end := clock()
	if err != nil {
		return err
	}
	size := int64(len(payload)) + transport.HeaderSize
	c.mu.Lock()
	if c.first < 0 {
		c.first = size
	}
	if isEvent(payload) {
		c.eventWriteAt = append(c.eventWriteAt, start)
	}
	c.writeNS = append(c.writeNS, end-start)
	c.mu.Unlock()
	c.writes.Add(1)
	c.written.Add(size)
	return nil
}

func (c *wrapConn) ReadFrame() ([]byte, error) {
	frame, err := c.Conn.ReadFrame()
	if err != nil {
		return nil, err
	}
	if isEvent(frame) {
		at := clock()
		c.mu.Lock()
		c.eventReadAt = append(c.eventReadAt, at)
		c.mu.Unlock()
	}
	c.read.Add(int64(len(frame)) + transport.HeaderSize)
	return frame, nil
}

// firstFrame returns the size of the first frame written (0 if none).
func (c *wrapConn) firstFrame() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.first < 0 {
		return 0
	}
	return c.first
}

func (c *wrapConn) records() (writeAt, readAt, writeNS []int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.eventWriteAt...),
		append([]int64(nil), c.eventReadAt...),
		append([]int64(nil), c.writeNS...)
}
