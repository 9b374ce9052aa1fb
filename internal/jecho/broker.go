package jecho

import (
	"fmt"
	"sync"

	"methodpart/internal/mir"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// Broker implements Third-Party Derivation (the paper's §7 future work,
// building on its Active Brokers [28]): modulators operate inside a third
// party instead of the message source. Upstream sources push raw events to
// the broker; downstream subscribers install their handlers *at the
// broker*, whose per-subscription modulators, profiling, plans and send
// pipelines work exactly as at a first-party sender. Sources stay
// completely unaware of the subscribers' handlers — the paper's decoupling
// pushed one hop further.
type Broker struct {
	pub      *Publisher
	upstream transport.Listener
	logf     func(format string, args ...any)

	mu       sync.Mutex
	received uint64
	closed   bool
	wg       sync.WaitGroup
}

// BrokerConfig configures a broker.
type BrokerConfig struct {
	// DownstreamAddr is where subscribers connect (same protocol as a
	// Publisher).
	DownstreamAddr string
	// UpstreamAddr is where event sources connect.
	UpstreamAddr string
	// Publisher options are forwarded; its Transport (nil = TCP) carries
	// both the downstream and the upstream side.
	Publisher PublisherConfig
}

// NewBroker starts both listeners.
func NewBroker(cfg BrokerConfig) (*Broker, error) {
	pcfg := cfg.Publisher
	pcfg.Addr = cfg.DownstreamAddr
	pub, err := NewPublisher(pcfg)
	if err != nil {
		return nil, err
	}
	// NewPublisher defaulted the transport; reuse the same one upstream.
	up, err := pub.cfg.Transport.Listen(cfg.UpstreamAddr)
	if err != nil {
		_ = pub.Close()
		return nil, fmt.Errorf("jecho: broker upstream listen: %w", err)
	}
	b := &Broker{pub: pub, upstream: up, logf: pub.cfg.Logf}
	b.wg.Add(1)
	go b.acceptUpstream()
	return b, nil
}

// DownstreamAddr returns the subscriber-facing address.
func (b *Broker) DownstreamAddr() string { return b.pub.Addr() }

// UpstreamAddr returns the source-facing address.
func (b *Broker) UpstreamAddr() string { return b.upstream.Addr() }

// Subscribers returns the downstream subscription count.
func (b *Broker) Subscribers() int { return b.pub.Subscribers() }

// Subscriptions snapshots the downstream subscriptions with their channel
// metrics.
func (b *Broker) Subscriptions() []SubscriptionInfo { return b.pub.Subscriptions() }

// Received returns the number of upstream events accepted.
func (b *Broker) Received() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.received
}

// Close stops both sides.
func (b *Broker) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	err := b.upstream.Close()
	if perr := b.pub.Close(); err == nil {
		err = perr
	}
	b.wg.Wait()
	return err
}

func (b *Broker) acceptUpstream() {
	defer b.wg.Done()
	for {
		conn, err := b.upstream.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serveSource(conn)
	}
}

// serveSource relays one source's raw event stream into the broker's
// modulators.
func (b *Broker) serveSource(conn transport.Conn) {
	defer b.wg.Done()
	defer conn.Close()
	for {
		frame, err := conn.ReadFrame()
		if err != nil {
			return
		}
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			b.logf("jecho broker: bad upstream frame: %v", err)
			return
		}
		raw, ok := msg.(*wire.Raw)
		if !ok {
			b.logf("jecho broker: upstream sent %T, want Raw", msg)
			continue
		}
		b.mu.Lock()
		b.received++
		b.mu.Unlock()
		// A source compiles no program, so its events arrive in the
		// tagged form, which decodes without a schema.
		event, err := raw.DecodeEvent(nil)
		if err != nil {
			b.logf("jecho broker: bad upstream event: %v", err)
			return
		}
		if _, err := b.pub.Publish(event); err != nil {
			b.logf("jecho broker: publish: %v", err)
		}
	}
}

// Source is a lightweight upstream event feed into a broker.
type Source struct {
	conn    transport.Conn
	writeMu sync.Mutex
	seq     uint64
}

// NewSource dials a broker's upstream address over TCP.
func NewSource(addr string) (*Source, error) {
	return NewSourceVia(transport.Default(), addr)
}

// NewSourceVia dials a broker's upstream address over the given transport.
func NewSourceVia(tr transport.Transport, addr string) (*Source, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("jecho: source dial: %w", err)
	}
	return &Source{conn: conn}, nil
}

// Emit pushes one raw event to the broker.
func (s *Source) Emit(event mir.Value) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.seq++
	data, err := wire.Marshal(&wire.Raw{Seq: s.seq, Event: event})
	if err != nil {
		return err
	}
	return s.conn.WriteFrame(data)
}

// Close tears the feed down.
func (s *Source) Close() error { return s.conn.Close() }
