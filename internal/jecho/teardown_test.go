package jecho_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
)

// logLines collects formatted log lines for assertions.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// matching returns the collected lines containing substr.
func (l *logLines) matching(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

// publishUntil publishes 16×16 frames as fast as it can until stop closes,
// then closes done.
func publishUntil(pub *jecho.Publisher, stop, done chan struct{}) {
	defer close(done)
	for i := int64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		_, _ = pub.Publish(imaging.NewFrame(16, 16, i))
	}
}

// TestPublisherCloseUnderTrafficLogsNothing: a publisher closed while its
// senders are busy writing closes their connections under them. Those
// write failures are its own teardown, not peer errors, and must not be
// logged as send failures.
func TestPublisherCloseUnderTrafficLogsNothing(t *testing.T) {
	var logs logLines
	for round := 0; round < 10; round++ {
		mem := transport.NewMem()
		reg, _ := imaging.Builtins()
		pub, err := jecho.NewPublisher(jecho.PublisherConfig{
			Transport: mem,
			Builtins:  reg,
			Logf:      logs.logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = pub.Close() })
		subs := []*jecho.Subscriber{
			chaosSubscribe(t, mem, pub.Addr(), jecho.SubscriberConfig{Name: fmt.Sprintf("a-%d", round)}),
			chaosSubscribe(t, mem, pub.Addr(), jecho.SubscriberConfig{Name: fmt.Sprintf("b-%d", round)}),
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go publishUntil(pub, stop, done)
		eventually(t, func() bool { return subs[0].Processed() > 50 && subs[1].Processed() > 50 },
			func() string {
				return fmt.Sprintf("round %d: processed %d and %d", round, subs[0].Processed(), subs[1].Processed())
			})
		if err := pub.Close(); err != nil {
			t.Errorf("round %d: close: %v", round, err)
		}
		close(stop)
		<-done
		for _, sub := range subs {
			_ = sub.Close()
		}
	}
	if lines := logs.matching("send:"); len(lines) != 0 {
		t.Fatalf("a publisher close logged %d send failures, first: %s", len(lines), lines[0])
	}
}

// failWrites wraps a transport so that, once armed, every write on an
// accepted (publisher-side) connection fails: a peer write error the
// publisher did not cause.
type failWrites struct {
	transport.Transport
	armed atomic.Bool
}

var errInjectedWrite = errors.New("injected write failure")

func (f *failWrites) Listen(addr string) (transport.Listener, error) {
	l, err := f.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &failListener{Listener: l, f: f}, nil
}

type failListener struct {
	transport.Listener
	f *failWrites
}

func (l *failListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &failConn{Conn: c, f: l.f}, nil
}

type failConn struct {
	transport.Conn
	f *failWrites
}

func (c *failConn) WriteFrame(payload []byte) error {
	if c.f.armed.Load() {
		return errInjectedWrite
	}
	return c.Conn.WriteFrame(payload)
}

// TestPublisherSendErrorLogsOnce: a write failure the publisher did not
// cause still retires the subscription and logs exactly one send line.
func TestPublisherSendErrorLogsOnce(t *testing.T) {
	var logs logLines
	tr := &failWrites{Transport: transport.NewMem()}
	reg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Transport: tr,
		Builtins:  reg,
		Logf:      logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	sub := chaosSubscribe(t, tr, pub.Addr(), jecho.SubscriberConfig{Name: "victim"})
	eventually(t, func() bool { return pub.Subscribers() == 1 }, func() string { return "no subscription" })
	stop, done := make(chan struct{}), make(chan struct{})
	go publishUntil(pub, stop, done)
	eventually(t, func() bool { return sub.Processed() > 20 },
		func() string { return fmt.Sprintf("processed %d", sub.Processed()) })
	tr.armed.Store(true)
	eventually(t, func() bool { return pub.Subscribers() == 0 },
		func() string { return "the failing subscription was never retired" })
	close(stop)
	<-done
	lines := logs.matching("send:")
	if len(lines) != 1 || !strings.Contains(lines[0], errInjectedWrite.Error()) {
		t.Fatalf("send failure logged %d times (%q), want once naming %q", len(lines), lines, errInjectedWrite)
	}
}
