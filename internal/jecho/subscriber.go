package jecho

import (
	"fmt"
	"log"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/linkest"
	"methodpart/internal/mir/interp"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// SubscriberConfig configures a subscription to a remote publisher.
type SubscriberConfig struct {
	// Addr is the publisher's address in the transport's notation.
	Addr string
	// Transport carries the subscription (nil = TCP). It must match the
	// publisher's transport.
	Transport transport.Transport
	// Name identifies this subscriber.
	Name string
	// Channel names the event channel to attach to ("" = default;
	// Publisher.Publish broadcasts reach every channel either way).
	Channel string
	// Source is the handler source (classes + func) to install.
	Source string
	// Handler is the handler name inside Source.
	Handler string
	// CostModel is the wire name of the cost model ("datasize",
	// "exectime").
	CostModel string
	// Natives lists the receiver-pinned functions of the handler.
	Natives []string
	// Builtins is the receiver-side registry (must implement all
	// handler functions, including the natives).
	Builtins *interp.Registry
	// Environment is the deployment-time resource estimate for the
	// reconfiguration unit.
	Environment costmodel.Environment
	// OnResult, if set, observes every completed message.
	OnResult func(*partition.Result)
	// ReconfigEvery is the reconfiguration rate trigger in messages
	// (0 = 10).
	ReconfigEvery uint64
	// DiffThreshold is the diff trigger sensitivity (0 = 0.2).
	DiffThreshold float64
	// Resubscribe makes the subscriber survive connection loss: it redials
	// with exponential backoff, replays the subscription handshake, and
	// reseeds the fresh session from its merged profiling snapshot, so the
	// reconfiguration unit resumes from accumulated knowledge instead of
	// restarting cold.
	Resubscribe bool
	// ResubscribeAttempts bounds consecutive failed reconnect attempts per
	// outage before the subscriber gives up terminally
	// (0 = DefaultResubscribeAttempts).
	ResubscribeAttempts int
	// HeartbeatInterval is the idle-liveness probe period
	// (0 = DefaultHeartbeatInterval, <0 disables heartbeats and silence
	// detection).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent heartbeat periods declare the
	// publisher dead: the read window is HeartbeatInterval ×
	// HeartbeatMisses (0 = DefaultHeartbeatMisses, <0 disables silence
	// detection only).
	HeartbeatMisses int
	// WriteTimeout bounds each frame write (plans, heartbeats) so a wedged
	// publisher fails the write instead of blocking forever
	// (0 = DefaultWriteTimeout, <0 disables).
	WriteTimeout time.Duration
	// MaxWork bounds the interpreter work one demodulation may consume
	// before it is cancelled with a budget fault (>0 enables; 0 leaves the
	// interpreter unbounded apart from its step limit).
	MaxWork int64
	// BreakerThreshold is how many demod failures within BreakerWindow
	// trip a PSE's circuit breaker, excluding it from the split set
	// (0 = DefaultBreakerThreshold, <0 disables the breaker).
	BreakerThreshold int
	// BreakerWindow is the failure-counting window
	// (0 = DefaultBreakerWindow, <0 disables).
	BreakerWindow time.Duration
	// BreakerCooldown is how long a tripped PSE stays excluded before a
	// half-open probe re-admits it (0 = DefaultBreakerCooldown,
	// <0 disables).
	BreakerCooldown time.Duration
	// DeadLetterSize bounds the quarantine ring for poison messages
	// (0 = DefaultDeadLetterSize, <0 disables quarantine).
	DeadLetterSize int
	// SplitPolicy is the SLO policy this channel's reconfiguration unit
	// optimises for: which operating point on the Pareto front of
	// candidate cuts each plan selection takes. The zero value
	// (reconfig.Balanced) is the legacy scalar min-cut under CostModel, so
	// existing configurations select exactly the plans they always did.
	SplitPolicy reconfig.SLOPolicy
	// LinkEstimateInterval enables live link estimation when > 0: the
	// subscriber measures RTT from heartbeat echoes (protocol v6) and
	// effective bandwidth from bytes-on-wire over wall time, and publishes
	// the measured environment into the reconfiguration unit at this
	// period, so the Pareto front tracks the real link instead of the
	// deployment-time Environment. 0 (the default) keeps the configured
	// Environment authoritative. Requires heartbeats
	// (HeartbeatInterval >= 0): the probes ride them.
	LinkEstimateInterval time.Duration
	// LinkEstimateHalfLife is the estimator's EWMA half-life
	// (0 = linkest.DefaultHalfLife).
	LinkEstimateHalfLife time.Duration
	// LinkWarmupSamples is how many samples each measured axis needs
	// before it overrides the configured Environment
	// (0 = linkest.DefaultMinSamples).
	LinkWarmupSamples int
	// FlipMargin enables plan-flip hysteresis when > 0: a challenger cut
	// must beat the incumbent on the policy's primary objective by this
	// fraction (e.g. 0.1 = 10%) for FlipConfirmations consecutive
	// selections before the plan flips. 0 disables (legacy behavior).
	FlipMargin float64
	// FlipConfirmations is the hysteresis confirmation count
	// (0 = reconfig.DefaultFlipConfirmations).
	FlipConfirmations int
	// Reliability selects the delivery contract (protocol v5). BestEffort
	// — the zero value — is the classic fire-and-forget channel.
	// AtLeastOnce adds per-subscription sequencing, publisher-side replay,
	// dedup and gap repair: every event arrives at least once (exactly
	// once at the handler, which sits behind the dedup) or its loss is
	// explicitly counted as DataLoss. Requires a v5 publisher; an older
	// one ignores the request and the channel degrades to best-effort.
	Reliability Reliability
	// AckEvery paces standalone cumulative acks: one per AckEvery
	// delivered events (0 = DefaultAckEvery). Idle heartbeats carry the
	// ack regardless. Only meaningful with AtLeastOnce.
	AckEvery uint64
	// Tracer receives split-lifecycle trace events (demodulation, faults,
	// feedback merges, min-cut runs, plan pushes, breaker transitions,
	// NACKs, dead-letter quarantines). Nil — the default — disables
	// tracing at zero per-event cost; per-PSE histograms (see Collect)
	// are always on.
	Tracer *obsv.Tracer
	// Logf receives diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Subscriber is the receiver side of one subscription: it demodulates
// incoming messages, merges sender feedback with local profiling, and
// pushes new plans back to the publisher. With Resubscribe set it also
// survives connection loss: profiling state and the reconfiguration unit
// live here, not in the connection, so a fresh session can be seeded from
// everything learned before the failure.
type Subscriber struct {
	cfg      SubscriberConfig
	sup      supervision
	subMsg   *wire.Subscribe
	compiled *partition.Compiled
	demod    *partition.Demodulator
	coll     *profileunit.Collector
	runit    *reconfig.Unit
	trigger  profileunit.Trigger
	metrics  channelMetrics
	hists    *pseHistograms
	breaker  *pseBreaker
	letters  *deadLetterRing
	// rel is the at-least-once receive state: dedup, gap detection and
	// ack pacing (nil on best-effort subscriptions). It survives
	// reconnects — the resubscribe handshake carries its contiguous seq
	// so the stream resumes instead of restarting.
	rel *relReceiver
	// link measures the subscription's live RTT/bandwidth (nil when link
	// estimation is disabled). Reset on resubscribe: the fresh session may
	// sit on a different path.
	link *linkest.Estimator

	mu          sync.Mutex
	conn        transport.Conn
	senderStats map[int32]costmodel.Stat
	// lastSplit and pushedVersion describe the last plan pushed to the
	// publisher; diverged is set when feedback reports a publisher-side
	// version ahead of pushedVersion (a breaker degrade, or a refused push),
	// and forces the next selection out even if its cut is unchanged.
	lastSplit     []int32
	pushedVersion uint64
	diverged      bool
	readErr       error
	processed     uint64

	// rxStats and merged are scratch maps for the per-message profile
	// merge, reused so a delivered event allocates no maps. Owned by the
	// read loop (resync runs only between read loops).
	rxStats map[int32]costmodel.Stat
	merged  map[int32]costmodel.Stat

	done     chan struct{}
	stop     chan struct{} // closed by Close: aborts reconnect backoff
	stopOnce sync.Once
	closing  atomic.Bool
}

// fullJitter draws a uniform delay in [0, d): full-jitter backoff. The
// *ceiling* doubles deterministically while every waiter sleeps a random
// fraction of it, so subscribers orphaned by one publisher restart spread
// their reconnects across the window instead of stampeding in lockstep.
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(rand.Int64N(int64(d)))
}

// SubscribeWithRetry dials the publisher with full-jitter exponential
// backoff (ceiling starting at 50ms, doubling, capped at 2s; each wait
// drawn uniformly below the ceiling) until the subscription succeeds or
// attempts are exhausted — for deployments where the receiver may come up
// before its publisher.
func SubscribeWithRetry(cfg SubscriberConfig, attempts int) (*Subscriber, error) {
	if attempts < 1 {
		attempts = 1
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		sub, err := Subscribe(cfg)
		if err == nil {
			return sub, nil
		}
		lastErr = err
		if i+1 < attempts {
			time.Sleep(fullJitter(backoff))
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
	}
	return nil, fmt.Errorf("jecho: subscribe after %d attempts: %w", attempts, lastErr)
}

// Subscribe dials the publisher, installs the handler, and starts the
// receive loop.
func Subscribe(cfg SubscriberConfig) (*Subscriber, error) {
	if cfg.Builtins == nil {
		return nil, fmt.Errorf("jecho: subscriber needs a builtin registry")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.ReconfigEvery == 0 {
		cfg.ReconfigEvery = 10
	}
	if cfg.DiffThreshold == 0 {
		cfg.DiffThreshold = 0.2
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.Default()
	}
	subMsg := &wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: cfg.Name,
		Channel:    cfg.Channel,
		Handler:    cfg.Handler,
		Source:     cfg.Source,
		CostModel:  cfg.CostModel,
		Natives:    cfg.Natives,
	}
	if cfg.Reliability == AtLeastOnce {
		subMsg.Reliability = wire.ReliabilityAtLeastOnce
	}
	compiled, err := compileSubscription(subMsg)
	if err != nil {
		return nil, err
	}

	env := interp.NewEnv(compiled.Classes, cfg.Builtins)
	if cfg.MaxWork > 0 {
		env.MaxWork = cfg.MaxWork
	}
	coll := profileunit.NewCollector(compiled.NumPSEs())
	demod := partition.NewDemodulator(compiled, env)
	demod.Probe = coll
	demod.CrossProbe = coll
	s := &Subscriber{
		cfg:      cfg,
		sup:      resolveSupervision(cfg.HeartbeatInterval, cfg.HeartbeatMisses, cfg.WriteTimeout),
		subMsg:   subMsg,
		compiled: compiled,
		demod:    demod,
		coll:     coll,
		runit:    newPolicyUnit(compiled, cfg.Environment, cfg.SplitPolicy, cfg.FlipMargin, cfg.FlipConfirmations),
		trigger: &profileunit.EitherTrigger{Children: []profileunit.Trigger{
			&profileunit.RateTrigger{EveryMessages: cfg.ReconfigEvery},
			&profileunit.DiffTrigger{Threshold: cfg.DiffThreshold, MinMessages: 3},
		}},
		senderStats: make(map[int32]costmodel.Stat),
		hists:       newPSEHistograms(compiled.NumPSEs()),
		breaker:     resolveBreaker(cfg.BreakerThreshold, cfg.BreakerWindow, cfg.BreakerCooldown),
		letters:     newDeadLetterRing(cfg.DeadLetterSize),
		done:        make(chan struct{}),
		stop:        make(chan struct{}),
	}
	if cfg.Reliability == AtLeastOnce {
		s.rel = newRelReceiver(cfg.AckEvery)
	}
	if cfg.LinkEstimateInterval > 0 {
		s.link = linkest.New(linkest.Config{
			HalfLife:   cfg.LinkEstimateHalfLife,
			MinSamples: cfg.LinkWarmupSamples,
		})
	}
	if cfg.Tracer != nil {
		s.breaker.observeTransitions(breakerObserver(cfg.Tracer, cfg.Channel, func() string { return cfg.Name }))
	}
	conn, err := s.connect()
	if err != nil {
		return nil, err
	}
	s.setConn(conn)
	// Install the static initial plan at the sender.
	plan, wirePlan, err := s.runit.InitialPlan()
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	demod.SetProfilePlan(plan)
	if err := s.sendPlan(wirePlan); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go s.supervise(conn)
	return s, nil
}

// connect dials the publisher and replays the subscription handshake. It is
// the shared path of the initial Subscribe and every resubscription.
func (s *Subscriber) connect() (transport.Conn, error) {
	conn, err := s.cfg.Transport.Dial(s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("jecho: dial publisher: %w", err)
	}
	if s.rel != nil {
		// The handshake carries the last contiguously received seq — and
		// the epoch of the stream it counts — so the publisher resumes the
		// stream (replaying what we missed) instead of restarting it, and
		// knows to ignore the resume point entirely when its state is a
		// different stream.
		s.subMsg.ResumeSeq, s.subMsg.ResumeEpoch = s.rel.resumePoint()
	}
	data, err := wire.Marshal(s.subMsg)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	s.sup.armWrite(conn)
	if err := conn.WriteFrame(data); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("jecho: subscribe handshake: %w", err)
	}
	return conn, nil
}

// Compiled exposes the compiled handler (PSE table) for inspection.
func (s *Subscriber) Compiled() *partition.Compiled { return s.compiled }

// Processed returns the number of completed messages.
func (s *Subscriber) Processed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.processed
}

// Done is closed when the receive loop ends for good — after Close, after a
// connection loss with Resubscribe off, or after reconnect attempts are
// exhausted. Mid-outage, a resubscribing subscriber keeps Done open.
func (s *Subscriber) Done() <-chan struct{} { return s.done }

// Stats returns the merged (sender + receiver) per-PSE profiling snapshot —
// the same view the reconfiguration unit decides on.
func (s *Subscriber) Stats() map[int32]costmodel.Stat {
	s.mu.Lock()
	sender := make(map[int32]costmodel.Stat, len(s.senderStats))
	for id, st := range s.senderStats {
		sender[id] = st
	}
	s.mu.Unlock()
	return profileunit.Merge(sender, s.coll.Snapshot())
}

// Metrics snapshots the subscriber-side channel counters: messages
// demodulated, bytes received, plans pushed, reconnects survived.
// Publisher-only fields (Dropped, Suppressed, queue depths) stay zero here.
func (s *Subscriber) Metrics() ChannelMetrics {
	return s.metrics.snapshot()
}

// DeadLetters snapshots the quarantined poison messages, oldest first (nil
// when quarantine is disabled).
func (s *Subscriber) DeadLetters() []DeadLetter {
	return s.letters.Snapshot()
}

// RedeliverDeadLetters drains the quarantine ring and runs every letter
// back through the demodulator, as if its frame had just arrived. A letter
// that now decodes and demodulates cleanly is delivered exactly like a live
// event — it counts toward Published/Processed and reaches OnResult — and
// is tallied as redelivered. A letter that fails again is re-quarantined
// with the fresh error and tallied as requarantined, so it can be retried
// on a later call. This lets an operator retry poison messages after the
// cause is fixed — an upgraded handler image, a restored native binding —
// without restarting the subscription.
//
// Redelivery is local: no NACK goes upstream for a repeat failure (the
// publisher already heard about the original), breakers are untouched, and
// delivery-sequence bookkeeping is unchanged — a sequenced letter was
// already admitted by dedup when it first arrived.
func (s *Subscriber) RedeliverDeadLetters() (redelivered, requarantined int) {
	for _, dl := range s.letters.drain() {
		class := wire.NackDecode
		msg, err := wire.Unmarshal(dl.Frame)
		if err == nil {
			// A letter quarantined at the envelope layer holds the wrapped
			// event; unwrap so the demodulator sees the inner message.
			if se, ok := msg.(*wire.SeqEvent); ok {
				msg, err = wire.Unmarshal(se.Payload)
			}
		}
		var res *partition.Result
		if err == nil {
			if res, err = s.demod.Process(msg); err != nil {
				class = partition.FaultClassOf(err)
			}
		}
		if err != nil {
			dl.Class = class
			dl.Reason = err.Error()
			s.quarantine(dl)
			requarantined++
			s.metrics.dlRequarantined.Add(1)
			continue
		}
		s.metrics.published.Add(1)
		s.mu.Lock()
		s.processed++
		s.mu.Unlock()
		if s.cfg.OnResult != nil {
			s.cfg.OnResult(res)
		}
		redelivered++
		s.metrics.dlRedelivered.Add(1)
	}
	return redelivered, requarantined
}

// Err returns the terminal error (nil on clean close). A close initiated
// locally via Close is clean; a publisher that goes away mid-subscription is
// not. While a resubscribing subscriber is mid-outage Err stays nil — an
// outage it expects to survive is not terminal.
func (s *Subscriber) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readErr
}

// Close tears the subscription down, aborting any in-flight reconnect.
func (s *Subscriber) Close() error {
	s.closing.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	err := s.currentConn().Close()
	<-s.done
	return err
}

func (s *Subscriber) setConn(conn transport.Conn) {
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
}

func (s *Subscriber) currentConn() transport.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn
}

func (s *Subscriber) setErr(err error) {
	s.mu.Lock()
	s.readErr = err
	s.mu.Unlock()
}

func (s *Subscriber) sendPlan(p *wire.Plan) error {
	data, err := wire.Marshal(p)
	if err != nil {
		return err
	}
	conn := s.currentConn()
	s.sup.armWrite(conn)
	if err := conn.WriteFrame(data); err != nil {
		return err
	}
	s.metrics.controlBytes.Add(uint64(len(data)) + transport.HeaderSize)
	s.mu.Lock()
	flipped := s.lastSplit != nil && !partition.EqualCut(s.lastSplit, p.Split)
	if flipped {
		s.metrics.planFlips.Add(1)
	}
	s.lastSplit = append(s.lastSplit[:0], p.Split...)
	s.pushedVersion = p.Version
	s.diverged = false
	s.mu.Unlock()
	if flipped {
		tracePlanFlip(s.cfg.Tracer, s.cfg.Channel, s.cfg.Name, p.Version, p.Split)
	}
	return nil
}

// supervise owns the subscription across connections: it runs the read loop
// on the current connection and, when the connection dies underneath a
// Resubscribe subscriber, redials, resubscribes and resyncs before going
// around again. It is the only goroutine that closes done.
func (s *Subscriber) supervise(conn transport.Conn) {
	defer close(s.done)
	for {
		err := s.readLoop(conn)
		if s.closing.Load() {
			return
		}
		if !s.cfg.Resubscribe {
			s.setErr(err)
			return
		}
		s.cfg.Logf("jecho subscriber %s: connection lost (%v); resubscribing", s.cfg.Name, err)
		next, rerr := s.resubscribe()
		if rerr != nil {
			if !s.closing.Load() {
				s.setErr(rerr)
			}
			return
		}
		s.metrics.reconnects.Add(1)
		conn = next
	}
}

// resubscribe redials with full-jitter exponential backoff (ceiling 50ms
// doubling, capped at 2s; each wait uniform below the ceiling — a publisher
// restart must not get a synchronized thundering herd from every orphaned
// subscriber) until a fresh session is connected and resynced, attempts run
// out, or Close aborts the wait.
func (s *Subscriber) resubscribe() (transport.Conn, error) {
	attempts := s.cfg.ResubscribeAttempts
	if attempts <= 0 {
		attempts = DefaultResubscribeAttempts
	}
	backoff := 50 * time.Millisecond
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-s.stop:
				return nil, fmt.Errorf("jecho: subscriber closed during resubscribe")
			case <-time.After(fullJitter(backoff)):
			}
			backoff *= 2
			if backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		conn, err := s.connect()
		if err != nil {
			lastErr = err
			continue
		}
		if err := s.resync(conn); err != nil {
			_ = conn.Close()
			lastErr = err
			continue
		}
		return conn, nil
	}
	return nil, fmt.Errorf("jecho: resubscribe after %d attempts: %w", attempts, lastErr)
}

// resync seeds a fresh session from everything learned before the outage:
// it recomputes the plan from the merged (sender + receiver) profiling
// snapshot — both halves survive the connection because they live in the
// subscriber — and pushes it to the publisher's newly compiled modulator,
// so the split decision resumes where it left off instead of walking in
// again from the static initial plan.
func (s *Subscriber) resync(conn transport.Conn) error {
	s.setConn(conn)
	if s.link != nil {
		// The fresh session may sit on a different path; pre-disconnect
		// samples must not keep pricing its plans. Drop the estimator state
		// and fall back to the configured environment until the new link's
		// measurements clear the warm-up gate again.
		s.link.Reset()
		s.runit.SetEnvironment(s.cfg.Environment)
	}
	if s.rel != nil {
		// Retransmit requests issued on the dead connection died with it;
		// gaps still open after the publisher's resume replay must be
		// re-requested on this one.
		s.rel.resetRequests()
	}
	merged, _ := s.mergeStats()
	plan, wirePlan, err := s.selectPlan(merged)
	if err != nil {
		return err
	}
	s.demod.SetProfilePlan(plan)
	return s.sendPlan(wirePlan)
}

// heartbeatLoop proves liveness to the publisher while the plan channel is
// idle. A failed heartbeat write closes the connection, which wakes the
// read loop blocked on the same conn so supervision can take over.
func (s *Subscriber) heartbeatLoop(conn transport.Conn, connDone <-chan struct{}) {
	t := time.NewTicker(s.sup.interval)
	defer t.Stop()
	var seq uint64
	var buf []byte // reused per tick; the transport copies on write
	var lastEnvPub time.Time
	for {
		select {
		case <-connDone:
			return
		case <-s.stop:
			return
		case <-t.C:
			seq++
			hb := &wire.Heartbeat{Seq: seq}
			if s.link != nil {
				// The heartbeat doubles as an RTT probe: a v6 publisher
				// echoes Seq back and the read loop closes the sample.
				s.link.Probe(seq)
			}
			if s.rel != nil {
				// Idle channels still drain the publisher's replay ring:
				// every heartbeat piggybacks the cumulative ack, and the
				// publisher's idle-replay heuristic keys off repeated acks
				// to repair a lost stream tail.
				hb.HasAck = true
				hb.AckSeq = s.rel.contiguous()
			}
			var err error
			buf, err = wire.AppendMarshal(buf[:0], hb)
			if err != nil {
				return
			}
			s.sup.armWrite(conn)
			if err := conn.WriteFrame(buf); err != nil {
				_ = conn.Close()
				return
			}
			s.metrics.heartbeatsSent.Add(1)
			if hb.HasAck {
				s.metrics.acksSent.Add(1)
			}
			s.metrics.controlBytes.Add(uint64(len(buf)) + transport.HeaderSize)
			if s.link != nil {
				// Effective bandwidth: this side's cumulative bytes on the
				// wire (event + control, both directions are one link)
				// sampled over wall time by the estimator.
				s.link.ObserveBytes(s.metrics.bytesOnWire.Load() + s.metrics.controlBytes.Load())
				if now := time.Now(); now.Sub(lastEnvPub) >= s.cfg.LinkEstimateInterval {
					lastEnvPub = now
					if env, measured := s.link.Environment(s.cfg.Environment); measured {
						// Race-safe by design; the next SelectPlan prices
						// the front against the measured link.
						s.runit.SetEnvironment(env)
					}
				}
			}
			if s.rel != nil {
				// Heartbeat-paced gap retry: a retransmit request whose
				// replay was dropped would otherwise never be re-issued on
				// this connection (reqHigh is a high-water mark). retryGap
				// re-arms it after a backoff of stalled ticks.
				if from, to := s.rel.retryGap(); to != 0 {
					s.sendRetransmitRequest(from, to)
				}
			}
		}
	}
}

// readLoop serves one connection until it dies, returning the read error.
func (s *Subscriber) readLoop(conn transport.Conn) error {
	connDone := make(chan struct{})
	defer close(connDone)
	if s.sup.interval > 0 {
		go s.heartbeatLoop(conn, connDone)
	}
	for {
		s.sup.armRead(conn)
		frame, err := conn.ReadFrame()
		if err != nil {
			return err
		}
		wireBytes := uint64(len(frame)) + transport.HeaderSize
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			// An undecodable frame is a per-frame fault, not a transient
			// connection error: count it, quarantine the bytes for
			// inspection, and keep serving the connection. No NACK — a
			// frame too broken to decode cannot be attributed to a PSE.
			// Its bytes count as event traffic: that is what it almost
			// certainly was, and the bytes-saved ratio should see its cost.
			s.metrics.bytesOnWire.Add(wireBytes)
			s.metrics.decodeFailures.Add(1)
			s.quarantine(DeadLetter{
				PSEID:  UnattributedPSE,
				Class:  wire.NackDecode,
				Reason: err.Error(),
				Frame:  frame,
			})
			s.cfg.Logf("jecho subscriber: decode: %v", err)
			continue
		}
		switch m := msg.(type) {
		case *wire.Raw, *wire.Continuation:
			s.metrics.bytesOnWire.Add(wireBytes)
			s.handleEvent(m, frame)
		case *wire.SeqEvent:
			s.metrics.bytesOnWire.Add(wireBytes)
			s.handleSeqEvent(m)
		case *wire.Batch:
			s.metrics.bytesOnWire.Add(wireBytes)
			s.metrics.batchesRecv.Add(1)
			s.handleBatch(m)
		case *wire.StreamStart:
			s.metrics.controlBytes.Add(wireBytes)
			s.handleStreamStart(m)
		case *wire.Lost:
			s.metrics.controlBytes.Add(wireBytes)
			s.handleLost(m)
		case *wire.Feedback:
			s.metrics.controlBytes.Add(wireBytes)
			s.applyFeedback(m)
		case *wire.Heartbeat:
			s.metrics.controlBytes.Add(wireBytes)
			s.metrics.heartbeatsRecv.Add(1)
			if m.HasEcho && s.link != nil {
				s.link.Echo(m.EchoSeq)
			}
			if m.Seq > 0 {
				// Reflect the publisher's probe so it can measure RTT on
				// its own clock. Pure echoes carry Seq 0, so two endpoints
				// never echo each other's echoes.
				s.sendEcho(m.Seq)
			}
		default:
			s.metrics.controlBytes.Add(wireBytes)
			s.cfg.Logf("jecho subscriber: unexpected %T", msg)
		}
	}
}

// handleEvent demodulates one decoded event message (Raw or Continuation),
// whether it arrived as its own wire frame or as one entry of a batch.
// frame is the encoded form of exactly this message, kept for quarantine
// and per-PSE byte attribution.
func (s *Subscriber) handleEvent(m any, frame []byte) {
	start := time.Now()
	res, err := s.demod.Process(m)
	demodDur := time.Since(start)
	if err != nil {
		s.noteDemodFailure(m, frame, err)
		return
	}
	s.metrics.published.Add(1)
	seq, _ := attribution(m)
	observeDemod(s.cfg.Tracer, s.hists, s.cfg.Channel, s.cfg.Name,
		seq, res.SplitPSE, int64(len(frame)), res.DemodWork, demodDur)
	if res.SplitPSE >= 0 {
		s.breaker.Succeed(res.SplitPSE)
	}
	s.mu.Lock()
	s.processed++
	s.mu.Unlock()
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(res)
	}
	s.maybeReconfigure()
}

// handleBatch unpacks a batch frame and demodulates each entry in order,
// with per-entry fault containment: a corrupt or poison entry is counted,
// quarantined and NACKed exactly as if it had arrived in its own frame,
// and the remaining entries still run.
func (s *Subscriber) handleBatch(b *wire.Batch) {
	for _, entry := range b.Entries {
		inner, err := wire.Unmarshal(entry)
		if err != nil {
			s.metrics.decodeFailures.Add(1)
			s.quarantine(DeadLetter{
				PSEID:  UnattributedPSE,
				Class:  wire.NackDecode,
				Reason: err.Error(),
				Frame:  entry,
			})
			s.cfg.Logf("jecho subscriber: batch entry decode: %v", err)
			continue
		}
		switch m := inner.(type) {
		case *wire.Raw, *wire.Continuation:
			s.handleEvent(m, entry)
		case *wire.SeqEvent:
			s.handleSeqEvent(m)
		default:
			// Only event frames ride in batches; a nested batch or a
			// smuggled control frame is a protocol violation by the peer.
			s.metrics.decodeFailures.Add(1)
			s.cfg.Logf("jecho subscriber: batch entry was %T", m)
		}
	}
}

// handleSeqEvent unwraps one delivery-sequenced event: dedup and gap
// detection run on the envelope's seq *before* demodulation, so the
// handler sits strictly behind the dedup (at-least-once on the wire,
// exactly-once at the handler). Acking is receipt-based — a poison payload
// is still acked, because redelivering it would just poison again; the
// dead-letter quarantine owns that failure mode.
func (s *Subscriber) handleSeqEvent(se *wire.SeqEvent) {
	if s.rel == nil {
		// A best-effort subscription must never see envelopes; a publisher
		// that sends them anyway is violating the negotiated protocol.
		s.metrics.decodeFailures.Add(1)
		s.cfg.Logf("jecho subscriber: unexpected seq envelope on best-effort channel")
		return
	}
	deliver, gapFrom, gapTo, ackDue, ackSeq := s.rel.admit(se.Seq)
	if gapTo != 0 {
		s.sendRetransmitRequest(gapFrom, gapTo)
	}
	if !deliver {
		// Replay overshoot or ack race: drop before the handler and ack
		// immediately so the replaying publisher converges.
		s.metrics.duplicatesDropped.Add(1)
		s.sendAck(ackSeq)
		return
	}
	inner, err := wire.Unmarshal(se.Payload)
	if err != nil {
		s.metrics.decodeFailures.Add(1)
		s.quarantine(DeadLetter{
			PSEID:  UnattributedPSE,
			Class:  wire.NackDecode,
			Reason: err.Error(),
			Frame:  se.Payload,
		})
		s.cfg.Logf("jecho subscriber: seq %d payload decode: %v", se.Seq, err)
	} else {
		switch m := inner.(type) {
		case *wire.Raw, *wire.Continuation:
			s.handleEvent(m, se.Payload)
		default:
			s.metrics.decodeFailures.Add(1)
			s.cfg.Logf("jecho subscriber: seq envelope carried %T", m)
		}
	}
	if ackDue {
		s.sendAck(ackSeq)
	}
}

// handleStreamStart processes the publisher's stream-epoch handshake — the
// first frame of every at-least-once connection. A changed epoch means the
// stream this receiver was deduplicating is dead (publisher restart,
// evicted orphan, duplicate-triple fresh state): the dedup state resets so
// the new stream's events deliver instead of being silently dropped as
// duplicates of the old numbering. The break is loud — counted on
// StreamResets, traced, logged — but NOT added to DataLoss: the old
// stream's undelivered tail is unknowable from this side, and a fabricated
// count would corrupt the staged == processed + dataLoss identity.
func (s *Subscriber) handleStreamStart(m *wire.StreamStart) {
	if s.rel == nil {
		s.cfg.Logf("jecho subscriber: unexpected stream start on best-effort channel")
		return
	}
	if s.rel.streamStart(m.Epoch) {
		s.metrics.streamResets.Add(1)
		traceStreamReset(s.cfg.Tracer, s.cfg.Channel, s.cfg.Name, m.Epoch)
		s.cfg.Logf("jecho subscriber %s: STREAM RESET: publisher started a fresh delivery stream (epoch %d); "+
			"the previous stream's undelivered tail is unrecoverable and unquantifiable",
			s.cfg.Name, m.Epoch)
	}
}

// handleLost processes a Lost notice: the publisher's ring evicted
// [From, To] before the gap could be repaired. Every event in the range
// this subscriber never received is counted as DataLoss — loudly, on the
// counter, the tracer and the log — and the stream advances past it.
func (s *Subscriber) handleLost(m *wire.Lost) {
	if s.rel == nil {
		s.cfg.Logf("jecho subscriber: unexpected loss notice on best-effort channel")
		return
	}
	missing, ackSeq := s.rel.lost(m.From, m.To)
	if missing > 0 {
		s.metrics.dataLoss.Add(missing)
		traceDataLoss(s.cfg.Tracer, s.cfg.Channel, s.cfg.Name, m.From, m.To)
		s.cfg.Logf("jecho subscriber %s: DATA LOSS: %d events in seq range %d..%d are unrecoverable (replay ring evicted them)",
			s.cfg.Name, missing, m.From, m.To)
	}
	// Ack the advanced position immediately: the publisher is holding (or
	// re-declaring) this range until it hears we moved past it.
	s.sendAck(ackSeq)
}

// sendAck pushes a cumulative delivery ack upstream. Like sendNack it
// writes directly on the connection (WriteFrame is concurrency-safe) and
// only logs failures: the teardown a failed write implies is the read
// loop's to detect.
func (s *Subscriber) sendAck(seq uint64) {
	data, err := wire.Marshal(&wire.Ack{Seq: seq})
	if err != nil {
		return
	}
	conn := s.currentConn()
	s.sup.armWrite(conn)
	if err := conn.WriteFrame(data); err != nil {
		s.cfg.Logf("jecho subscriber: send ack: %v", err)
		return
	}
	s.metrics.acksSent.Add(1)
	s.metrics.controlBytes.Add(uint64(len(data)) + transport.HeaderSize)
}

// sendEcho reflects a publisher heartbeat's Seq back as a pure echo
// (Seq 0, so the publisher never echoes it in turn), closing the
// publisher's RTT sample. Direct connection write like sendAck.
func (s *Subscriber) sendEcho(seq uint64) {
	data, err := wire.Marshal(&wire.Heartbeat{HasEcho: true, EchoSeq: seq})
	if err != nil {
		return
	}
	conn := s.currentConn()
	s.sup.armWrite(conn)
	if err := conn.WriteFrame(data); err != nil {
		s.cfg.Logf("jecho subscriber: send echo: %v", err)
		return
	}
	s.metrics.heartbeatsSent.Add(1)
	s.metrics.controlBytes.Add(uint64(len(data)) + transport.HeaderSize)
}

// sendRetransmitRequest asks the publisher to replay [from, to] — the
// receiver observed a delivery beyond a gap these seqs should have filled.
func (s *Subscriber) sendRetransmitRequest(from, to uint64) {
	data, err := wire.Marshal(&wire.Retransmit{From: from, To: to})
	if err != nil {
		return
	}
	conn := s.currentConn()
	s.sup.armWrite(conn)
	if err := conn.WriteFrame(data); err != nil {
		s.cfg.Logf("jecho subscriber: send retransmit request: %v", err)
		return
	}
	s.metrics.retransReqSent.Add(1)
	s.metrics.controlBytes.Add(uint64(len(data)) + transport.HeaderSize)
}

// attribution extracts the sequence number and split PSE from a decoded
// event message, for failure reporting.
func attribution(msg any) (seq uint64, pse int32) {
	switch m := msg.(type) {
	case *wire.Raw:
		return m.Seq, partition.RawPSEID
	case *wire.Continuation:
		return m.Seq, m.PSEID
	}
	return 0, UnattributedPSE
}

// quarantine stamps and stores a dead letter, keeping the counter in step
// with the ring.
func (s *Subscriber) quarantine(dl DeadLetter) {
	if s.letters == nil {
		return
	}
	dl.When = time.Now()
	s.letters.add(dl)
	s.metrics.deadLettered.Add(1)
	s.cfg.Tracer.Emit(obsv.Event{
		Kind: obsv.EvDeadLetter, Channel: s.cfg.Channel, Sub: s.cfg.Name,
		PSE: dl.PSEID, EventSeq: dl.Seq, Bytes: int64(len(dl.Frame)),
		Detail: dl.Class.String(),
	})
}

// noteDemodFailure is the poison-message path: classify, count, attribute
// the fault to its split PSE, quarantine the frame, report upstream with a
// NACK, and — if this failure trips the PSE's breaker — reconfigure away
// from the broken split point immediately.
func (s *Subscriber) noteDemodFailure(msg any, frame []byte, err error) {
	class := partition.FaultClassOf(err)
	seq, pse := attribution(msg)
	s.cfg.Logf("jecho subscriber: demodulate seq %d (pse %d, class %s): %v", seq, pse, class, err)
	s.metrics.demodFailures.Add(1)
	if tr := s.cfg.Tracer; tr.Enabled() {
		tr.Emit(obsv.Event{
			Kind: obsv.EvDemodFault, Channel: s.cfg.Channel, Sub: s.cfg.Name,
			PSE: pse, EventSeq: seq, Detail: fmt.Sprintf("%s: %v", class, err),
		})
	}
	if pse >= 0 {
		s.coll.Fault(pse)
	}
	s.quarantine(DeadLetter{Seq: seq, PSEID: pse, Class: class, Reason: err.Error(), Frame: frame})
	s.sendNack(&wire.Nack{Handler: s.compiled.Prog.Name, Seq: seq, PSEID: pse, Class: class})
	if pse >= 0 && s.breaker.Fail(pse) {
		s.metrics.breakerTrips.Add(1)
		s.reconfigure()
	}
}

// sendNack reports one demod failure upstream. A failed write is only
// logged: the connection teardown it implies is detected by the read loop.
func (s *Subscriber) sendNack(n *wire.Nack) {
	data, err := wire.Marshal(n)
	if err != nil {
		s.cfg.Logf("jecho subscriber: marshal nack: %v", err)
		return
	}
	conn := s.currentConn()
	s.sup.armWrite(conn)
	if err := conn.WriteFrame(data); err != nil {
		s.cfg.Logf("jecho subscriber: send nack: %v", err)
		return
	}
	s.metrics.nacksSent.Add(1)
	s.metrics.controlBytes.Add(uint64(len(data)) + transport.HeaderSize)
	s.cfg.Tracer.Emit(obsv.Event{
		Kind: obsv.EvNackSent, Channel: s.cfg.Channel, Sub: s.cfg.Name,
		PSE: n.PSEID, EventSeq: n.Seq, Detail: n.Class.String(),
	})
}

// applyFeedback merges a sender-side profiling report. Sender-side failure
// counts (modulation faults the publisher attributed to PSEs) feed the
// local breaker as deltas, so a sender whose modulator keeps failing at a
// PSE trips it here too. The report also carries the publisher's active
// plan version; fast-forwarding the reconfiguration unit past it keeps
// locally selected plans from being rejected as stale after the publisher's
// degrade path forced a version on its own.
//
// A reported version ahead of the last one pushed means the publisher
// diverged from this subscriber's plan (a degrade, or a refused push), so
// the next selection is pushed even when its cut has not changed.
func (s *Subscriber) applyFeedback(fb *wire.Feedback) {
	s.runit.ObserveVersion(fb.PlanVersion)
	stats := profileunit.FromWire(fb)
	s.cfg.Tracer.Emit(obsv.Event{
		Kind: obsv.EvFeedback, Channel: s.cfg.Channel, Sub: s.cfg.Name,
		PSE: obsv.NoPSE, Plan: fb.PlanVersion, Value: int64(len(stats)),
	})
	tripped := false
	s.mu.Lock()
	if fb.PlanVersion > s.pushedVersion {
		s.diverged = true
	}
	for id, st := range stats {
		prev := s.senderStats[id]
		s.senderStats[id] = st
		if st.Failures > prev.Failures {
			if s.breaker.FailN(id, st.Failures-prev.Failures) {
				s.metrics.breakerTrips.Add(1)
				tripped = true
			}
		}
	}
	s.mu.Unlock()
	if tripped {
		s.reconfigure()
	} else {
		s.maybeReconfigure()
	}
}

// mergeStats refreshes the merged (sender + receiver) profile in the read
// loop's scratch maps and returns it with the processed count. The map is
// overwritten by the next call.
func (s *Subscriber) mergeStats() (map[int32]costmodel.Stat, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rxStats = s.coll.SnapshotInto(s.rxStats)
	s.merged = profileunit.MergeInto(s.merged, s.senderStats, s.rxStats)
	return s.merged, s.processed
}

// maybeReconfigure runs the reconfiguration unit when the triggers fire and
// pushes any changed plan back to the publisher.
func (s *Subscriber) maybeReconfigure() {
	merged, messages := s.mergeStats()
	if !s.trigger.ShouldReport(merged, messages) {
		return
	}
	s.reconfigureWith(merged)
}

// reconfigure recomputes the plan immediately, bypassing the triggers —
// used when a breaker trip makes the active plan unhealthy *now*.
func (s *Subscriber) reconfigure() {
	merged, _ := s.mergeStats()
	s.reconfigureWith(merged)
}

// selectPlan applies the breaker's exclusions to the reconfiguration unit
// and selects a plan for the given statistics. Only the read loop (and
// resync, which never runs concurrently with it) calls this, so runit
// access stays serialized.
func (s *Subscriber) selectPlan(merged map[int32]costmodel.Stat) (*partition.Plan, *wire.Plan, error) {
	s.runit.SetTripped(s.breaker.OpenIDs())
	plan, wirePlan, err := s.runit.SelectPlan(merged)
	if err != nil {
		return nil, nil, err
	}
	traceMinCut(s.cfg.Tracer, s.cfg.Channel, s.cfg.Name, s.runit)
	return plan, wirePlan, nil
}

// reconfigureWith selects a plan and pushes it when its cut differs from
// the last one pushed or the publisher has diverged. Selection runs at the
// triggers' cadence either way; only the push is skipped, so a steady cut
// costs no plan frame and no class migration at the publisher.
func (s *Subscriber) reconfigureWith(merged map[int32]costmodel.Stat) {
	plan, wirePlan, err := s.selectPlan(merged)
	if err != nil {
		s.cfg.Logf("jecho subscriber: reconfigure: %v", err)
		return
	}
	s.mu.Lock()
	push := s.diverged || !partition.EqualCut(s.lastSplit, wirePlan.Split)
	s.mu.Unlock()
	if !push {
		return
	}
	s.demod.SetProfilePlan(plan)
	if err := s.sendPlan(wirePlan); err != nil {
		s.cfg.Logf("jecho subscriber: send plan: %v", err)
	}
}

// newPolicyUnit builds a reconfiguration unit with its SLO policy and flip
// hysteresis set.
func newPolicyUnit(c *partition.Compiled, env costmodel.Environment, policy reconfig.SLOPolicy, flipMargin float64, flipConfirmations int) *reconfig.Unit {
	u := reconfig.NewUnit(c, env)
	u.Policy = policy
	u.FlipMargin = flipMargin
	u.FlipConfirmations = flipConfirmations
	return u
}
