package jecho_test

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

func newTestPublisher(t *testing.T) *jecho.Publisher {
	t.Helper()
	reg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Addr:     "127.0.0.1:0",
		Builtins: reg,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	return pub
}

func TestPublishWithoutSubscribers(t *testing.T) {
	pub := newTestPublisher(t)
	n, err := pub.Publish(imaging.NewFrame(8, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("reached %d subscribers", n)
	}
}

func TestBadHandshakeRejected(t *testing.T) {
	pub := newTestPublisher(t)
	conn, err := net.Dial("tcp", pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A plan message instead of a subscription.
	data, err := wire.Marshal(&wire.Plan{Handler: "x", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, data); err != nil {
		t.Fatal(err)
	}
	// The publisher must close the connection without registering.
	deadline := time.Now().Add(2 * time.Second)
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(deadline)
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection not closed after bad handshake")
	}
	if pub.Subscribers() != 0 {
		t.Error("bad handshake registered a subscription")
	}
}

func TestBadHandlerSourceRejected(t *testing.T) {
	pub := newTestPublisher(t)
	conn, err := net.Dial("tcp", pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := wire.Marshal(&wire.Subscribe{
		Protocol: wire.ProtocolVersion, Subscriber: "x", Handler: "f",
		Source: "not mir at all", CostModel: "datasize",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Error("connection survived uncompilable source")
	}
	if pub.Subscribers() != 0 {
		t.Error("uncompilable subscription registered")
	}
}

// TestProtocolMismatchRejected: a handshake at any revision other than
// wire.ProtocolVersion is refused before anything registers. Revisions 3
// to 6 are the retired ones an old peer could still announce; 99 stands for
// a future one.
func TestProtocolMismatchRejected(t *testing.T) {
	for _, proto := range []uint32{3, 4, 5, 6, 7, 99} {
		t.Run(fmt.Sprintf("v%d", proto), func(t *testing.T) {
			pub := newTestPublisher(t)
			conn, err := net.Dial("tcp", pub.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			data, err := wire.Marshal(&wire.Subscribe{
				Protocol: proto, Subscriber: "other", Handler: "f",
				Source: "func f(x) {\n return\n}", CostModel: "datasize",
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := transport.WriteFrame(conn, data); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 1)
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := conn.Read(buf); err == nil {
				t.Error("connection survived protocol mismatch")
			}
			if pub.Subscribers() != 0 {
				t.Error("mismatched protocol registered a subscription")
			}
		})
	}
}

// TestRevision7RefusedBeforeCompile: a revision-7 subscriber would read
// revision 8's compiled event frames as garbage, so the publisher refuses
// its handshake before compiling its handler. The handler source here
// does not assemble: compiling it would log a compile error, and the
// refusal must be the only thing logged.
func TestRevision7RefusedBeforeCompile(t *testing.T) {
	var mu sync.Mutex
	var logs []string
	reg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Addr:     "127.0.0.1:0",
		Builtins: reg,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	conn, err := net.Dial("tcp", pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := wire.Marshal(&wire.Subscribe{
		Protocol: 7, Subscriber: "old", Handler: "f",
		Source: "this is not assembler", CostModel: "datasize",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, data); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection survived a revision-7 handshake")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logs) != 1 || !strings.Contains(logs[0], "protocol 7") {
		t.Fatalf("publisher logged %q; want only the protocol refusal", logs)
	}
}

// TestNackUnknownPSEIgnored: a NACK naming a PSE the handler doesn't have
// must be counted as a malformed frame and dropped, not fed to the breaker —
// 5 bogus NACKs exceed the default threshold of 3, so any breaker activity
// here means the bound check failed.
func TestNackUnknownPSEIgnored(t *testing.T) {
	pub := newTestPublisher(t)
	conn, err := net.Dial("tcp", pub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data, err := wire.Marshal(&wire.Subscribe{
		Protocol: wire.ProtocolVersion, Subscriber: "nacker",
		Handler: imaging.HandlerName, Source: imaging.HandlerSource(64),
		CostModel: costmodel.DataSizeName, Natives: []string{"displayImage"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteFrame(conn, data); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	const bogus = 5
	for i := 0; i < bogus; i++ {
		nack, err := wire.Marshal(&wire.Nack{
			Handler: imaging.HandlerName, Seq: uint64(i),
			PSEID: 1 << 20, Class: wire.NackRuntime,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := transport.WriteFrame(conn, nack); err != nil {
			t.Fatal(err)
		}
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		subs := pub.Subscriptions()
		if len(subs) == 1 && subs[0].Metrics.NacksReceived == bogus {
			m := subs[0].Metrics
			if m.BreakerTrips != 0 {
				t.Fatalf("bogus NACKs tripped the breaker %d times", m.BreakerTrips)
			}
			if m.DecodeFailures != bogus {
				t.Fatalf("decode failures = %d, want %d", m.DecodeFailures, bogus)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("NACKs never surfaced in metrics: %+v", subs)
		}
		time.Sleep(time.Millisecond)
	}
	if pub.Subscribers() != 1 {
		t.Fatal("bogus NACKs killed the subscription")
	}
}

func TestSubscriberDisconnectCleansUp(t *testing.T) {
	pub := newTestPublisher(t)
	reg, _ := imaging.Builtins()
	sub, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:        pub.Addr(),
		Name:        "flaky",
		Source:      imaging.HandlerSource(64),
		Handler:     imaging.HandlerName,
		CostModel:   costmodel.DataSizeName,
		Natives:     []string{"displayImage"},
		Builtins:    reg,
		Environment: costmodel.DefaultEnvironment(),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	_ = sub.Close()
	deadline = time.Now().Add(5 * time.Second)
	for pub.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not cleaned up after disconnect")
		}
		time.Sleep(time.Millisecond)
	}
	// Publishing after the disconnect reaches nobody but must not fail.
	if n, err := pub.Publish(imaging.NewFrame(8, 8, 1)); err != nil || n != 0 {
		t.Fatalf("publish after disconnect: n=%d err=%v", n, err)
	}
}

func TestSubscribeUnknownCostModel(t *testing.T) {
	pub := newTestPublisher(t)
	reg, _ := imaging.Builtins()
	_, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:      pub.Addr(),
		Name:      "x",
		Source:    imaging.HandlerSource(64),
		Handler:   imaging.HandlerName,
		CostModel: "bogus",
		Builtins:  reg,
	})
	if err == nil {
		t.Fatal("unknown cost model accepted")
	}
}

func TestSubscribeWithRetryEventuallySucceeds(t *testing.T) {
	reg, _ := imaging.Builtins()
	cfg := jecho.SubscriberConfig{
		Name:        "late",
		Source:      imaging.HandlerSource(64),
		Handler:     imaging.HandlerName,
		CostModel:   costmodel.DataSizeName,
		Natives:     []string{"displayImage"},
		Builtins:    reg,
		Environment: costmodel.DefaultEnvironment(),
		Logf:        t.Logf,
	}
	// Start the publisher shortly after the first subscribe attempt fails.
	pubCh := make(chan *jecho.Publisher, 1)
	addrCh := make(chan string, 1)
	go func() {
		time.Sleep(80 * time.Millisecond)
		preg, _ := imaging.Builtins()
		pub, err := jecho.NewPublisher(jecho.PublisherConfig{Addr: "127.0.0.1:0", Builtins: preg, Logf: t.Logf})
		if err != nil {
			close(addrCh)
			return
		}
		pubCh <- pub
		addrCh <- pub.Addr()
	}()
	// We don't know the port until the publisher is up; retry against a
	// dead port first to exercise the backoff, then the real address.
	cfg.Addr = "127.0.0.1:1"
	if _, err := jecho.SubscribeWithRetry(cfg, 2); err == nil {
		t.Fatal("retry against dead port succeeded")
	}
	addr, ok := <-addrCh
	if !ok {
		t.Fatal("publisher never started")
	}
	cfg.Addr = addr
	sub, err := jecho.SubscribeWithRetry(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	pub := <-pubCh
	defer pub.Close()
}

func TestSubscribeConnectionRefused(t *testing.T) {
	reg, _ := imaging.Builtins()
	_, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:      "127.0.0.1:1", // nothing listens here
		Name:      "x",
		Source:    imaging.HandlerSource(64),
		Handler:   imaging.HandlerName,
		CostModel: costmodel.DataSizeName,
		Natives:   []string{"displayImage"},
		Builtins:  reg,
	})
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
}
