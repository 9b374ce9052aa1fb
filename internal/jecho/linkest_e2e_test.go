package jecho_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/obsv"
	"methodpart/internal/transport"
)

// latTransport wraps a transport with a settable symmetric write delay, so
// tests can present one link quality before a failure and another after it.
// It also tracks live connections for severing.
type latTransport struct {
	inner transport.Transport
	delay atomic.Int64 // nanoseconds added to every WriteFrame

	mu    sync.Mutex
	conns []transport.Conn
}

func newLatTransport(inner transport.Transport) *latTransport {
	return &latTransport{inner: inner}
}

func (t *latTransport) SetDelay(d time.Duration) { t.delay.Store(int64(d)) }

// SeverAll closes every connection made through the transport so far.
func (t *latTransport) SeverAll() int {
	t.mu.Lock()
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return len(conns)
}

func (t *latTransport) track(c transport.Conn) transport.Conn {
	lc := &latConn{Conn: c, tr: t}
	t.mu.Lock()
	t.conns = append(t.conns, lc)
	t.mu.Unlock()
	return lc
}

func (t *latTransport) Listen(addr string) (transport.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &latListener{Listener: l, tr: t}, nil
}

func (t *latTransport) Dial(addr string) (transport.Conn, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.track(c), nil
}

type latListener struct {
	transport.Listener
	tr *latTransport
}

func (l *latListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.tr.track(c), nil
}

type latConn struct {
	transport.Conn
	tr *latTransport
}

func (c *latConn) WriteFrame(payload []byte) error {
	if d := c.tr.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return c.Conn.WriteFrame(payload)
}

// linkOf pulls the single channel's link status out of an endpoint
// snapshot, nil when absent.
func linkOf(ep obsv.EndpointStatus) *obsv.LinkStatus {
	if len(ep.Channels) != 1 {
		return nil
	}
	return ep.Channels[0].Link
}

// TestLinkEstimationEndToEnd runs a subscriber with link estimation
// enabled over a link with injected latency, and requires that it
// accumulates echo-derived RTT samples and surfaces them through Status and
// Collect. The injected one-way delay is 2ms, so a correct estimator must
// report an RTT comfortably above zero. Only the subscriber selects plans,
// so only it estimates the link: the publisher reflects its probes and
// reports no link state and no link or Pareto samples of its own.
func TestLinkEstimationEndToEnd(t *testing.T) {
	tr := newLatTransport(transport.NewMem())
	tr.SetDelay(2 * time.Millisecond)
	pub := chaosPublisher(t, tr, jecho.PublisherConfig{
		FeedbackEvery:     5,
		HeartbeatInterval: 15 * time.Millisecond,
		HeartbeatMisses:   20,
		WriteTimeout:      time.Second,
	})
	sub := chaosSubscribe(t, tr, pub.Addr(), jecho.SubscriberConfig{
		Name:                 "linkest",
		ReconfigEvery:        5,
		HeartbeatInterval:    15 * time.Millisecond,
		HeartbeatMisses:      20,
		WriteTimeout:         time.Second,
		LinkEstimateInterval: 10 * time.Millisecond,
	})

	// Traffic so the bandwidth axis has bytes to meter.
	for i := 0; i < 40; i++ {
		if _, err := pub.Publish(imaging.NewFrame(200, 200, int64(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	deadline := time.Now().Add(10 * time.Second)
	var subLink *obsv.LinkStatus
	for {
		subLink = linkOf(sub.Status())
		if subLink != nil && subLink.RTTSamples >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("link estimate never warmed: subscriber=%+v", subLink)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// 2ms injected each way: a correct RTT estimate is >= 4ms. Allow
	// generous slack below but require it clearly off zero.
	if subLink.RTTMS < 1 {
		t.Errorf("subscriber RTT estimate = %.3fms, want >= 1ms with 2ms injected delay", subLink.RTTMS)
	}
	if subLink.BandwidthSamples == 0 {
		t.Error("subscriber metered no bandwidth samples despite traffic")
	}

	// The gauges must reach the subscriber's metrics surface.
	var rtt, bw bool
	sub.Collect(func(s obsv.Sample) {
		switch s.Name {
		case "methodpart_link_rtt_ms":
			rtt = s.Value > 0
		case "methodpart_link_bandwidth_bps":
			bw = true
		}
	})
	if !rtt || !bw {
		t.Errorf("subscriber Collect: link gauges missing or zero (rtt>0=%v, bandwidth present=%v)", rtt, bw)
	}

	// The publisher estimates nothing: no link state, no link or Pareto
	// samples.
	st := pub.Status()
	if len(st.Channels) != 1 {
		t.Fatalf("publisher status has %d channels, want 1", len(st.Channels))
	}
	for i, ch := range st.Channels {
		if ch.Link != nil {
			t.Errorf("publisher Status().Channels[%d].Link = %+v, want nil", i, ch.Link)
		}
	}
	pub.Collect(func(s obsv.Sample) {
		switch s.Name {
		case "methodpart_link_rtt_ms", "methodpart_link_bandwidth_bps",
			"methodpart_pareto_front_size", "methodpart_policy_flips_total", "methodpart_flips_suppressed_total":
			t.Errorf("publisher Collect emitted %s%v", s.Name, s.Labels)
		}
	})
}

// TestResubscribeResetsLinkEstimate is the regression test for estimator
// state surviving a reconnect: converge the estimate on a fast link, sever,
// degrade the link, and require the fresh session's estimate to reflect the
// NEW link promptly. The half-life is set long (60s) on purpose — if resync
// failed to reset the estimator, the stale near-zero RTT average could not
// drift up to the degraded link's RTT within the test window, and only a
// reseeded estimator (first sample after reset seeds directly) passes.
func TestResubscribeResetsLinkEstimate(t *testing.T) {
	tr := newLatTransport(transport.NewMem())
	pub := chaosPublisher(t, tr, jecho.PublisherConfig{
		FeedbackEvery:     5,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})
	sub := chaosSubscribe(t, tr, pub.Addr(), jecho.SubscriberConfig{
		Name:                 "linkest-reset",
		ReconfigEvery:        5,
		Resubscribe:          true,
		HeartbeatInterval:    10 * time.Millisecond,
		HeartbeatMisses:      5,
		WriteTimeout:         time.Second,
		LinkEstimateInterval: 10 * time.Millisecond,
		LinkEstimateHalfLife: 60 * time.Second,
	})

	// Phase 1: fast link (in-memory, no injected delay). Let the RTT
	// average converge near zero.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if l := linkOf(sub.Status()); l != nil && l.RTTSamples >= 5 {
			if l.RTTMS > 3 {
				t.Fatalf("fast-link RTT estimate = %.3fms, want near zero", l.RTTMS)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("estimate never warmed on the fast link")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 2: degrade the link to ~20ms RTT and cut every connection.
	tr.SetDelay(10 * time.Millisecond)
	if n := tr.SeverAll(); n == 0 {
		t.Fatal("SeverAll cut nothing")
	}

	// The resubscribed session must converge to the new link's RTT. With a
	// 60s half-life this is only reachable if the reconnect reset the
	// estimator so the first post-reset sample reseeds the average.
	deadline = time.Now().Add(15 * time.Second)
	for {
		if l := linkOf(sub.Status()); l != nil && l.RTTMS >= 8 {
			break
		}
		if time.Now().After(deadline) {
			l := linkOf(sub.Status())
			t.Fatalf("post-reconnect RTT estimate stuck at %+v, want >= 8ms on the degraded link", l)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sub.Metrics().Reconnects == 0 {
		t.Error("subscriber recorded no reconnects")
	}
}
