package jecho

import (
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/profileunit"
	"methodpart/internal/reconfig"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// PublisherConfig configures an event-channel publisher.
type PublisherConfig struct {
	// Addr is the listen address in the transport's notation (e.g.
	// "127.0.0.1:0" for TCP, "" for an auto-allocated Mem address).
	Addr string
	// Transport carries subscriptions (nil = TCP).
	Transport transport.Transport
	// Builtins are the movable library functions available to handlers at
	// the sender (natives need not be present; they never run here).
	Builtins *interp.Registry
	// FeedbackEvery is the sender-side profiling report period in
	// messages (0 = 10).
	FeedbackEvery uint64
	// QueueDepth bounds each subscription's outbound send queue: the
	// entries of its log appended but not yet sent (0 = DefaultQueueDepth).
	// A resume may queue a longer replay; the next append restores the
	// bound under the overflow policy.
	QueueDepth int
	// OverflowPolicy selects the behaviour when a subscription's queue is
	// full (default Block).
	OverflowPolicy OverflowPolicy
	// BatchBytes enables wire-level event batching: when the outbound
	// queue holds more than one event frame, the sender coalesces up to
	// BatchBytes of payload into a single batch wire frame (0 disables
	// batching).
	BatchBytes int
	// BatchDelay is how long the sender lingers after the first frame of
	// a batch for more to arrive, when the queue alone did not reach
	// BatchBytes (0 = no lingering: batch only what is already queued).
	// Only meaningful with BatchBytes > 0.
	BatchDelay time.Duration
	// ReplayRingBytes bounds what an at-least-once subscription's log
	// retains past the send cursor: sent frames stay until the
	// subscriber's cumulative ack, up to this many payload bytes, so a
	// reconnect can resume. Queued, unsent frames do not count. Beyond it
	// the oldest unacked frames are evicted (counted as RingEvictions; they
	// become DataLoss only if the link is cut before the subscriber acks
	// them), always keeping the newest sent frame. 0 =
	// DefaultReplayRingBytes; negative disables retention — events are
	// still sequenced and loss still declared, but nothing can be replayed.
	// Best-effort subscriptions retain nothing.
	ReplayRingBytes int
	// HeartbeatInterval is the idle-liveness probe period per
	// subscription (0 = DefaultHeartbeatInterval, <0 disables
	// heartbeats and silence detection).
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent heartbeat periods retire a peer:
	// the read window is HeartbeatInterval × HeartbeatMisses
	// (0 = DefaultHeartbeatMisses, <0 disables silence detection only).
	HeartbeatMisses int
	// WriteTimeout bounds each frame write so a wedged peer fails its
	// sender goroutine instead of blocking it forever
	// (0 = DefaultWriteTimeout, <0 disables).
	WriteTimeout time.Duration
	// BreakerThreshold is how many per-PSE failures (subscriber NACKs or
	// send-side modulation faults) within BreakerWindow trip that PSE's
	// circuit breaker, degrading the subscription's plan away from it
	// (0 = DefaultBreakerThreshold, <0 disables the breaker).
	BreakerThreshold int
	// BreakerWindow is the failure-counting window
	// (0 = DefaultBreakerWindow, <0 disables).
	BreakerWindow time.Duration
	// BreakerCooldown is how long a tripped PSE stays excluded before a
	// half-open probe re-admits it (0 = DefaultBreakerCooldown,
	// <0 disables).
	BreakerCooldown time.Duration
	// Tracer receives split-lifecycle trace events (publish, suppress,
	// NACKs, breaker transitions, plan flips). Nil — the
	// default — disables tracing at zero per-event cost; per-PSE
	// histograms (see Collect) are always on.
	Tracer *obsv.Tracer
	// Logf receives diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Publisher hosts an event channel: it accepts subscriptions and fans
// published events out through them. Subscriptions are pooled into
// plan-equivalence classes (see registry.go): everyone on the same (channel,
// handler, cut) key shares one modulator and one marshalled frame per event,
// so an event costs one modulation and one marshal per *class* and the
// per-subscriber work is a refcounted log append. Each subscription still
// owns an asynchronous send pipeline, so Publish never blocks on a peer's
// socket.
type Publisher struct {
	cfg      PublisherConfig
	sup      supervision
	listener transport.Listener

	// classes is the publisher's one record of membership: the
	// plan-equivalence class table and the snapshot every reader shares
	// (see registry.go). classes.mu also guards nextID and closed, so a
	// registration either sees closed or joins a class before Close sweeps.
	classes classIndex
	nextID  int
	closed  bool
	wg      sync.WaitGroup

	// compileMu guards the compile cache: distinct subscriptions shipping
	// the same handler source compile once and share the Compiled tables
	// (immutable after compile) and the sender-side interpreter
	// environment.
	compileMu sync.Mutex
	programs  map[string]*compiledEntry
	nextProg  uint64

	// modRuns counts modulator invocations; modulationsSaved counts the
	// per-member modulator runs class sharing avoided (members-1 per
	// event). modRuns == events while modulationsSaved grows with fan-out.
	modRuns          atomic.Uint64
	modulationsSaved atomic.Uint64

	// relMu guards relStates, the resume map of at-least-once delivery
	// streams keyed by (subscriber, channel, handler). A stream outlives
	// its subscription: retire detaches it, a resubscribe adopts it, and
	// the orphan cap bounds how many detached logs a publisher retains.
	relMu     sync.Mutex
	relStates map[relKey]*relState
}

// compiledEntry is one cached handler compilation: the immutable compiled
// tables, the shared sender-side environment, and the dense program key
// that stands in for all of it inside a classKey.
type compiledEntry struct {
	key      uint64
	compiled *partition.Compiled
	env      *interp.Env
}

// subscription is the publisher-side state of one subscriber. Modulation
// state (modulator, profiling collector, per-PSE histograms) lives on the
// subscription's current planClass; what remains here is per-peer: the
// connection, send pipeline, counters, failure tracking and feedback
// pacing.
type subscription struct {
	id       string
	channel  string
	conn     transport.Conn
	compiled *partition.Compiled
	env      *interp.Env
	progKey  uint64
	trigger  profileunit.Trigger
	pipe     *sendPipeline
	metrics  *channelMetrics
	// fbMu serializes trigger state between concurrently publishing
	// goroutines (two Publish calls may fan the same class out at once).
	fbMu sync.Mutex
	// breaker gates split-set eligibility per PSE from this subscription's
	// failure stream (NACKs from the subscriber, local modulation faults).
	breaker *pseBreaker

	// class is the subscription's current plan-equivalence class. Written
	// only under classIndex.mu (join/migrate/retire); nil once retired.
	class atomic.Pointer[planClass]
	// planVersion is the version of this subscription's active plan. It is
	// the subscription's own: a shared class's modulator plan belongs to no
	// single member, so staleness checks, degrade versions and feedback
	// read this instead. Written only under classIndex.mu.
	planVersion atomic.Uint64

	// rel is the at-least-once delivery stream (nil on best-effort
	// subscriptions); pipe.log is its log. It is not part of the classKey:
	// sequencing and the envelope are applied per subscription at send
	// time, so reliable and best-effort members still share one modulation
	// and one frame.
	rel *relState

	// retiring is set as retire begins, before it closes the connection:
	// a send failing after that is the publisher's own teardown, not a
	// peer error, and is not logged.
	retiring   atomic.Bool
	retireOnce sync.Once
}

// NewPublisher starts listening and accepting subscriptions.
func NewPublisher(cfg PublisherConfig) (*Publisher, error) {
	if cfg.Builtins == nil {
		return nil, fmt.Errorf("jecho: publisher needs a builtin registry")
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.FeedbackEvery == 0 {
		cfg.FeedbackEvery = 10
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.Default()
	}
	ln, err := cfg.Transport.Listen(cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("jecho: listen: %w", err)
	}
	p := &Publisher{
		cfg:      cfg,
		sup:      resolveSupervision(cfg.HeartbeatInterval, cfg.HeartbeatMisses, cfg.WriteTimeout),
		listener: ln,
		programs: make(map[string]*compiledEntry),
	}
	p.classes.init()
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the bound listen address.
func (p *Publisher) Addr() string { return p.listener.Addr() }

// Close stops the publisher and drops all subscriptions.
func (p *Publisher) Close() error {
	p.classes.mu.Lock()
	if p.closed {
		p.classes.mu.Unlock()
		return nil
	}
	p.closed = true
	p.classes.mu.Unlock()
	err := p.listener.Close()
	for _, v := range p.classes.snapshot() {
		for _, s := range v.members {
			p.retire(s)
		}
	}
	p.wg.Wait()
	p.closeRelStates()
	return err
}

// Subscribers returns the current subscriber count: the members of the
// snapshot the next Publish reads.
func (p *Publisher) Subscribers() int { return memberCount(p.classes.snapshot()) }

// PlanClasses returns the number of live plan-equivalence classes.
func (p *Publisher) PlanClasses() int { return len(p.classes.snapshot()) }

// ModulatorRuns returns how many times a class modulator ran (one per
// event per class; under a shared plan, one per event).
func (p *Publisher) ModulatorRuns() uint64 { return p.modRuns.Load() }

// ModulationsSaved returns the modulator runs avoided by class sharing:
// members−1 per event per class. With N subscribers on one plan it grows
// by N−1 per publish.
func (p *Publisher) ModulationsSaved() uint64 { return p.modulationsSaved.Load() }

// SubscriptionInfo describes one live subscription for observability.
type SubscriptionInfo struct {
	// ID is the publisher-assigned subscription id.
	ID string
	// Channel is the channel the subscription is attached to.
	Channel string
	// Handler is the installed handler's name.
	Handler string
	// PlanVersion is the subscription's own active plan version (members
	// of one plan class may differ; the version is not part of the key).
	PlanVersion uint64
	// SplitIDs are the active plan's flagged PSEs.
	SplitIDs []int32
	// QueueLen is the instantaneous outbound queue depth: log entries
	// appended or queued for replay and not yet sent.
	QueueLen int
	// Reliable reports the subscription runs at-least-once delivery.
	Reliable bool
	// StagedSeq is the highest delivery sequence assigned so far (0 on
	// best-effort subscriptions): the chaos invariant compares it against
	// the subscriber's processed + DataLoss counts.
	StagedSeq uint64
	// RingFrames/RingBytes are the sent-but-unacked frames the log
	// retains for a resume, and their payload bytes.
	RingFrames int
	RingBytes  int
	// FeedbackInFlight and FeedbackPending (0 or 1 each) are the feedback
	// frames in a send that has not returned and waiting to be sent. The
	// feedback counters in Metrics are read in the same cut, so
	// FeedbackStaged = FeedbackSent + FeedbackCoalesced + FeedbackInFlight +
	// FeedbackPending.
	FeedbackInFlight int
	FeedbackPending  int
	// Metrics snapshots the subscription's channel counters.
	Metrics ChannelMetrics
}

// Subscriptions snapshots the live subscriptions, ordered by id.
func (p *Publisher) Subscriptions() []SubscriptionInfo {
	views := p.classes.snapshot()
	out := make([]SubscriptionInfo, 0, len(views))
	for _, v := range views {
		split := v.class.mod.Plan().SplitIDs()
		for _, s := range v.members {
			info := SubscriptionInfo{
				ID:          s.id,
				Channel:     s.channel,
				Handler:     s.compiled.Prog.Name,
				PlanVersion: s.planVersion.Load(),
				SplitIDs:    append([]int32(nil), split...),
				QueueLen:    s.pipe.log.queued(),
				Metrics:     s.metrics.snapshot(),
			}
			info.FeedbackInFlight, info.FeedbackPending = s.pipe.feedbackCut(&info.Metrics)
			if s.rel != nil {
				info.Reliable = true
				info.StagedSeq, info.RingFrames, info.RingBytes = s.pipe.log.stats()
			}
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (p *Publisher) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.listener.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.handleConn(conn)
	}
}

// compileCached compiles a subscription's handler, memoized on the full
// identity (handler, cost model, sorted natives, source). Compiled tables
// are immutable and the sender-side environment is read-only during
// execution, so distinct subscriptions share both; the dense key stands in
// for the program inside classKey comparisons.
func (p *Publisher) compileCached(sub *wire.Subscribe) (*compiledEntry, error) {
	natives := append([]string(nil), sub.Natives...)
	sort.Strings(natives)
	var b strings.Builder
	b.WriteString(sub.Handler)
	b.WriteByte(0)
	b.WriteString(sub.CostModel)
	b.WriteByte(0)
	for _, n := range natives {
		b.WriteString(n)
		b.WriteByte(0)
	}
	b.WriteString(sub.Source)
	k := b.String()

	p.compileMu.Lock()
	defer p.compileMu.Unlock()
	if e, ok := p.programs[k]; ok {
		return e, nil
	}
	compiled, err := compileSubscription(sub)
	if err != nil {
		return nil, err
	}
	p.nextProg++
	e := &compiledEntry{
		key:      p.nextProg,
		compiled: compiled,
		env:      interp.NewEnv(compiled.Classes, p.cfg.Builtins),
	}
	p.programs[k] = e
	return e, nil
}

// newClassLocked creates the planClass for key with plan installed on a
// fresh modulator/collector pair. Caller holds classes.mu; the class is
// not visible to publishers until rebuildLocked runs.
func (p *Publisher) newClassLocked(key classKey, s *subscription, plan *partition.Plan) *planClass {
	mod := partition.NewModulator(s.compiled, s.env)
	coll := profileunit.NewCollector(s.compiled.NumPSEs())
	mod.Probe = coll
	mod.SetPlan(plan)
	return &planClass{
		key:      key,
		compiled: s.compiled,
		mod:      mod,
		coll:     coll,
		hists:    newPSEHistograms(s.compiled.NumPSEs()),
	}
}

// classKeyFor derives s's class key under plan.
func classKeyFor(s *subscription, plan *partition.Plan) classKey {
	return classKey{
		channel: s.channel,
		prog:    s.progKey,
		plan:    plan.Fingerprint(),
	}
}

// joinClassLocked adds s to the class for plan, creating it on first use,
// and makes plan's version the subscription's own. inherit, when non-nil,
// is a just-emptied class whose modulation state (modulator, profiling
// collector, per-PSE histograms) the new class reuses: a sole-member
// migration then behaves exactly like the seed's per-subscription
// Modulator.SetPlan — profiled statistics and the feedback message count
// survive the plan flip instead of resetting, which the subscriber's
// min-cut depends on. Caller holds classes.mu.
func (p *Publisher) joinClassLocked(s *subscription, plan *partition.Plan, inherit *planClass) {
	key := classKeyFor(s, plan)
	c := p.classes.classes[key]
	if c == nil {
		if inherit != nil {
			// The inherited modulator's plan version came from whichever
			// member installed it, so its version gate says nothing about
			// s; installPlan already checked s's own version. A publish
			// concurrently draining an older snapshot may still be running
			// this modulator; that is the same plan-swap/Process race the
			// modulator has always supported.
			inherit.mod.ReplacePlan(plan)
			c = &planClass{
				key:      key,
				compiled: inherit.compiled,
				mod:      inherit.mod,
				coll:     inherit.coll,
				hists:    inherit.hists,
			}
		} else {
			c = p.newClassLocked(key, s, plan)
		}
		p.classes.classes[key] = c
	}
	addMemberLocked(c, s)
	s.class.Store(c)
	s.planVersion.Store(plan.Version())
}

// installPlan migrates s to the class of plan — the publisher-side
// equivalent of the old per-subscription Modulator.SetPlan. The staleness
// check, the departure from the old class and the arrival in the new one
// all happen under the class-index mutex, so a publish racing the
// migration sees the subscription in exactly one class: the old plan's or
// the new plan's, never both and never neither. It returns errRetired when
// the subscription has been retired (a benign race, dropped quietly by
// callers), and a wrapped partition.ErrStalePlan when the plan's version
// does not advance past the subscription's own. A plan whose behaviour
// equals the active one only advances the version.
func (p *Publisher) installPlan(s *subscription, plan *partition.Plan) error {
	x := &p.classes
	x.mu.Lock()
	defer x.mu.Unlock()
	cur := s.class.Load()
	if cur == nil {
		return errRetired
	}
	if active := s.planVersion.Load(); plan.Version() != 0 && plan.Version() <= active {
		return fmt.Errorf("partition: %w: v%d not past active v%d",
			partition.ErrStalePlan, plan.Version(), active)
	}
	p.migrateLocked(s, cur, plan)
	return nil
}

// migrateLocked moves s from its class cur to the class of plan. A plan
// whose behaviour equals the active one only advances the version. Caller
// holds classes.mu.
func (p *Publisher) migrateLocked(s *subscription, cur *planClass, plan *partition.Plan) {
	if classKeyFor(s, plan) == cur.key {
		s.planVersion.Store(plan.Version())
		return
	}
	x := &p.classes
	var inherit *planClass
	if removeMemberLocked(cur, s) == 0 {
		delete(x.classes, cur.key)
		inherit = cur
	}
	p.joinClassLocked(s, plan, inherit)
	x.rebuildLocked()
}

// refusePlan records that a subscriber-pushed plan was not installed (stale,
// or blocked by an open breaker) by advancing the subscription's version
// past it. The subscriber pushes only when its cut changes or the publisher
// diverged; the next feedback frame now reports a version ahead of the
// refused push, which is how it learns of the divergence and re-sends.
func (p *Publisher) refusePlan(s *subscription, version uint64) {
	x := &p.classes
	x.mu.Lock()
	defer x.mu.Unlock()
	if s.class.Load() == nil {
		return
	}
	s.planVersion.Store(max(s.planVersion.Load(), version) + 1)
}

// retire removes a subscription and tears its pipeline and connection down.
// It is idempotent and is called from every path that finds the peer dead:
// the read loop erroring, the send pipeline failing a write, or Close.
// Retiring on the *send* path matters: without it a dead peer would keep
// costing (and failing) every subsequent Publish until its read loop
// happened to notice.
func (p *Publisher) retire(s *subscription) {
	s.retireOnce.Do(func() {
		s.retiring.Store(true)
		x := &p.classes
		x.mu.Lock()
		if c := s.class.Load(); c != nil {
			if removeMemberLocked(c, s) == 0 {
				delete(x.classes, c.key)
			}
			s.class.Store(nil)
			x.rebuildLocked()
		}
		x.mu.Unlock()
		s.pipe.shutdown()
		_ = s.conn.Close()
		// Park the delivery stream (log + epoch) for the resubscribe to
		// adopt — this is what makes reconnects resume
		// mid-stream instead of starting over.
		p.detachRelState(s.rel)
	})
}

// register assigns s its id and joins it to the class of plan in one
// critical section against Close: a closing publisher either refuses the
// subscription here (false) or finds it in the snapshot its sweep retires.
func (p *Publisher) register(s *subscription, name string, plan *partition.Plan) bool {
	x := &p.classes
	x.mu.Lock()
	defer x.mu.Unlock()
	if p.closed {
		return false
	}
	p.nextID++
	s.id = fmt.Sprintf("%s#%d", name, p.nextID)
	p.joinClassLocked(s, plan, nil)
	x.rebuildLocked()
	return true
}

// handleConn performs the subscription handshake, starts the send pipeline,
// then serves plan updates from the subscriber.
func (p *Publisher) handleConn(conn transport.Conn) {
	defer p.wg.Done()
	// The handshake gets the same silence window as steady-state reads: a
	// connection that never subscribes must not pin a goroutine forever.
	p.sup.armRead(conn)
	frame, err := conn.ReadFrame()
	if err != nil {
		_ = conn.Close()
		return
	}
	msg, err := wire.Unmarshal(frame)
	if err != nil {
		p.cfg.Logf("jecho publisher: bad handshake: %v", err)
		_ = conn.Close()
		return
	}
	subMsg, ok := msg.(*wire.Subscribe)
	if !ok {
		p.cfg.Logf("jecho publisher: handshake was %T, want Subscribe", msg)
		_ = conn.Close()
		return
	}
	// Both ends speak exactly one protocol revision; any other is refused
	// before anything is compiled or sent.
	if subMsg.Protocol != wire.ProtocolVersion {
		p.cfg.Logf("jecho publisher: protocol %d from %s, want %d",
			subMsg.Protocol, subMsg.Subscriber, wire.ProtocolVersion)
		_ = conn.Close()
		return
	}
	entry, err := p.compileCached(subMsg)
	if err != nil {
		p.cfg.Logf("jecho publisher: compile %s: %v", subMsg.Handler, err)
		_ = conn.Close()
		return
	}
	compiled := entry.compiled
	initialPlan, err := partition.NewPlan(compiled.NumPSEs(), 0, []int32{partition.RawPSEID}, nil)
	if err != nil {
		// NumPSEs >= 1 always; RawPSEID is always valid.
		p.cfg.Logf("jecho publisher: initial plan: %v", err)
		_ = conn.Close()
		return
	}

	metrics := &channelMetrics{}
	sub := &subscription{
		channel:  subMsg.Channel,
		conn:     conn,
		compiled: compiled,
		env:      entry.env,
		progKey:  entry.key,
		trigger:  &profileunit.RateTrigger{EveryMessages: p.cfg.FeedbackEvery},
		metrics:  metrics,
		breaker:  resolveBreaker(p.cfg.BreakerThreshold, p.cfg.BreakerWindow, p.cfg.BreakerCooldown),
	}
	var batch batchConfig
	if p.cfg.BatchBytes > 0 {
		batch = batchConfig{
			Bytes: p.cfg.BatchBytes,
			Delay: p.cfg.BatchDelay,
			hists: newBatchHistograms(),
		}
	}
	// At-least-once engages only when the subscriber asked for it; a
	// best-effort subscription gets no envelopes, no retention and no acks.
	reliable := subMsg.Reliability == wire.ReliabilityAtLeastOnce
	var out *sendLog // the subscription's outbound log
	var resumeSeq uint64
	if reliable {
		key := relKey{
			subscriber: subMsg.Subscriber,
			channel:    subMsg.Channel,
			handler:    subMsg.Handler,
		}
		if old := p.staleStreamOwner(key, subMsg.ResumeEpoch); old != nil {
			p.cfg.Logf("jecho publisher: %s resumes the stream of sub %s; retiring the stale session",
				subMsg.Subscriber, old.id)
			p.retire(old)
		}
		sub.rel = p.acquireRelState(key, sub)
		// The StreamStart epoch handshake must be the first frame the
		// subscriber sees, so it can reset stale dedup state before seq 1
		// of a fresh stream arrives. The send pipeline is not running yet,
		// so a direct write cannot interleave with event frames.
		data, err := wire.Marshal(&wire.StreamStart{Epoch: sub.rel.epoch})
		if err == nil {
			p.sup.armWrite(conn)
			err = conn.WriteFrame(data)
		}
		if err != nil {
			p.cfg.Logf("jecho publisher: stream-start handshake: %v", err)
			p.detachRelState(sub.rel)
			_ = conn.Close()
			return
		}
		out = sub.rel.log
		resumeSeq = sub.rel.resumePoint(subMsg.ResumeSeq, subMsg.ResumeEpoch)
	} else {
		out = newSendLog(p.cfg.QueueDepth, p.cfg.OverflowPolicy, -1)
	}
	sub.pipe = newSendPipeline(conn, out, p.sup, batch, metrics,
		func(err error) {
			if !sub.retiring.Load() {
				p.cfg.Logf("jecho publisher: sub %s send: %v; retiring", sub.id, err)
			}
			p.retire(sub)
		})
	sub.pipe.reliable = reliable
	sub.pipe.lostFn = func(from, to uint64) { p.countLost(sub, from, to) }
	// Resume: the unacked tail above the resume point becomes the new
	// session's queue, ahead of every publish to come, carrying its
	// original seqs; the sender declares Lost what the budget evicted.
	// Replayed frames ship as originally modulated; continuations are
	// self-describing (PSEID, resume node, saved vars), so a plan flip
	// since then cannot desynchronise the demodulator.
	replayFrom, replayTo := out.attach(sub.pipe, resumeSeq)

	if !p.register(sub, subMsg.Subscriber, initialPlan) {
		sub.pipe.shutdown()
		p.detachRelState(sub.rel)
		_ = conn.Close()
		return
	}

	if p.cfg.Tracer != nil {
		sub.breaker.observeTransitions(breakerObserver(p.cfg.Tracer, sub.channel, func() string { return sub.id }))
	}

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sub.pipe.run()
	}()

	if replayTo != 0 {
		traceReplay(p.cfg.Tracer, sub.channel, sub.id, replayFrom, replayTo)
	}

	// Serve inbound control messages (plans, heartbeats) until the peer
	// goes away or falls silent past the heartbeat window.
	for {
		p.sup.armRead(conn)
		frame, err := conn.ReadFrame()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				p.cfg.Logf("jecho publisher: sub %s: no frame in %v; retiring silent peer",
					sub.id, p.sup.window)
			}
			break
		}
		sub.pipe.heardFrom()
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			// A bad control frame is a per-frame fault: count it and keep
			// the subscription alive instead of retiring the peer.
			metrics.decodeFailures.Add(1)
			p.cfg.Logf("jecho publisher: sub %s: %v", sub.id, err)
			continue
		}
		switch m := msg.(type) {
		case *wire.Heartbeat:
			metrics.heartbeatsRecv.Add(1)
			if m.HasAck {
				metrics.acksRecv.Add(1)
				p.handleAck(sub, m.AckSeq)
			}
			if m.Seq > 0 {
				// Reflect the subscriber's probe so it can sample RTT.
				p.echoHeartbeat(sub, m.Seq)
			}
		case *wire.Ack:
			metrics.acksRecv.Add(1)
			p.handleAck(sub, m.Seq)
		case *wire.Nack:
			metrics.nacksRecv.Add(1)
			p.cfg.Tracer.Emit(obsv.Event{
				Kind: obsv.EvNackRecv, Channel: sub.channel, Sub: sub.id,
				PSE: m.PSEID, EventSeq: m.Seq, Detail: m.Class.String(),
			})
			if int(m.PSEID) >= compiled.NumPSEs() {
				// A NACK naming a PSE the handler doesn't have is a
				// malformed report, not a failure signal: feeding it to the
				// breaker would grow its state map without bound and inject
				// bogus ids into the degrade path.
				metrics.decodeFailures.Add(1)
				p.cfg.Logf("jecho publisher: sub %s: nack for unknown pse %d (handler has %d); ignored",
					sub.id, m.PSEID, compiled.NumPSEs())
				continue
			}
			if m.PSEID >= 0 && sub.breaker.Fail(m.PSEID) {
				metrics.breakerTrips.Add(1)
				p.cfg.Logf("jecho publisher: sub %s: breaker tripped for pse %d (class %s, seq %d); degrading",
					sub.id, m.PSEID, m.Class, m.Seq)
				p.degrade(sub)
			}
		case *wire.Plan:
			// A plan re-selecting a PSE whose breaker is still open would
			// reinstall the broken split; drop it. (Once the cooldown
			// elapses, Open flips the breaker half-open and the next such
			// plan passes — that acceptance starts the probe, which ends
			// either with a failure re-opening the breaker or, since the
			// publisher has no per-message success signal, by surviving a
			// full failure window without one.)
			if id := blockedSplit(sub.breaker, m.Split); id >= 0 {
				p.cfg.Tracer.Emit(obsv.Event{
					Kind: obsv.EvPlanBlocked, Channel: sub.channel, Sub: sub.id,
					PSE: id, Plan: m.Version,
				})
				p.cfg.Logf("jecho publisher: sub %s plan v%d re-selects tripped pse %d; dropped",
					sub.id, m.Version, id)
				p.refusePlan(sub, m.Version)
				continue
			}
			if err := p.applyWirePlan(sub, m); err != nil {
				if errors.Is(err, errRetired) {
					continue // raced the retirement; nothing to report
				}
				if errors.Is(err, partition.ErrStalePlan) {
					p.refusePlan(sub, m.Version)
					p.cfg.Tracer.Emit(obsv.Event{
						Kind: obsv.EvPlanStale, Channel: sub.channel, Sub: sub.id,
						PSE: obsv.NoPSE, Plan: m.Version,
					})
				}
				p.cfg.Logf("jecho publisher: sub %s plan: %v", sub.id, err)
				continue
			}
		default:
			p.cfg.Logf("jecho publisher: sub %s sent %T", sub.id, msg)
		}
	}
	p.retire(sub)
}

// echoHeartbeat reflects a subscriber heartbeat's Seq back so the peer can
// close its RTT sample on its own clock. The reply carries Seq 0, which the
// peer never echoes — the anti-loop rule.
func (p *Publisher) echoHeartbeat(s *subscription, seq uint64) {
	data, err := wire.Marshal(&wire.Heartbeat{HasEcho: true, EchoSeq: seq})
	if err != nil {
		return
	}
	if s.pipe.enqueueControl(data) {
		s.metrics.heartbeatsSent.Add(1)
	}
}

// applyWirePlan validates a subscriber-pushed plan (Compiled.WirePlan) and
// migrates the subscription to the plan's equivalence class.
func (p *Publisher) applyWirePlan(s *subscription, wp *wire.Plan) error {
	plan, err := s.compiled.WirePlan(wp)
	if err != nil {
		return err
	}
	var before []int32
	if c := s.class.Load(); c != nil {
		before = c.mod.Plan().SplitIDs()
	}
	if err := p.installPlan(s, plan); err != nil {
		return err
	}
	if !partition.EqualCut(before, plan.SplitIDs()) {
		s.metrics.planFlips.Add(1)
		tracePlanFlip(p.cfg.Tracer, s.channel, s.id, plan.Version(), plan.SplitIDs())
	}
	return nil
}

// handleAck applies a cumulative delivery ack: retained log entries
// release. An ack beyond anything sent is corrupt; it is clamped and
// counted.
func (p *Publisher) handleAck(s *subscription, seq uint64) {
	if s.rel == nil {
		return
	}
	if s.rel.log.ack(seq) {
		s.metrics.acksClamped.Add(1)
	}
}

// countLost accounts for a Lost notice s's sender wrote: the seqs no
// earlier notice declared count toward DataLoss, and the declaration is
// traced. The subscriber logs the loss; under DropOldest a publisher log
// line per skip would flood.
func (p *Publisher) countLost(s *subscription, from, to uint64) {
	s.metrics.dataLoss.Add(s.rel.log.declareLost(from, to))
	traceDataLoss(p.cfg.Tracer, s.channel, s.id, from, to)
}

// blockedSplit returns the first PSE in the split set whose breaker is
// open, or -1 when the whole set is admissible.
func blockedSplit(b *pseBreaker, split []int32) int32 {
	for _, id := range split {
		if b.Open(id) {
			return id
		}
	}
	return -1
}

// degrade installs the breaker's fallback plan sender-side: the deepest
// cut of the handler's cut table that avoids every open PSE (fallbackCut),
// profiling every PSE as the subscriber's plans do. Nothing is priced;
// choosing the best healthy cut stays the subscriber's job. Its version is
// forced one past the subscription's active plan, and the next feedback
// frame carries it: the subscriber's unit skips past it, sees the
// publisher diverged from its last push and re-pushes its own choice.
// blockedSplit refuses that push while it crosses an open PSE.
//
// The scan and the install run under the class-index mutex, so concurrent
// degrades (a NACK on the control goroutine, a modulation fault on a
// publish goroutine) serialize: each reads the breaker after the one
// before installed, and forces its version past that one's.
func (p *Publisher) degrade(s *subscription) {
	t := s.compiled.CutTable(reconfig.DefaultMaxCandidates)
	x := &p.classes
	x.mu.Lock()
	c := s.class.Load()
	if c == nil {
		x.mu.Unlock()
		return
	}
	tmpl, err := t.Plan(fallbackCut(t, s.breaker), true)
	if err != nil {
		x.mu.Unlock()
		p.cfg.Logf("jecho publisher: sub %s degrade plan: %v", s.id, err)
		return
	}
	before := c.mod.Plan().SplitIDs()
	plan := tmpl.WithVersion(s.planVersion.Load() + 1)
	p.migrateLocked(s, c, plan)
	x.mu.Unlock()
	if !partition.EqualCut(before, plan.SplitIDs()) {
		s.metrics.planFlips.Add(1)
		tracePlanFlip(p.cfg.Tracer, s.channel, s.id, plan.Version(), plan.SplitIDs())
	}
}

// fallbackCut returns the index in t of the breaker fallback: the deepest
// cut, the last in the table's BFS order, that is valid and crosses no PSE
// whose breaker is open. When no cut qualifies it returns 0, the raw cut —
// the degradation floor, even when raw itself is open.
func fallbackCut(t *partition.CutTable, b *pseBreaker) int {
	for i := len(t.Cuts) - 1; i > 0; i-- {
		if t.Valid(i) && blockedSplit(b, t.Cuts[i]) < 0 {
			return i
		}
	}
	return 0
}

// Publish pushes one event through every plan-equivalence class (all
// channels): one modulation and one marshal per class, fanned out to the
// class members as refcounted frames. It returns the number of
// subscriptions reached (modulated and queued, or filtered at the sender)
// and the joined error across failing subscriptions, so callers can tell
// one dead peer from total failure.
//
// The event value is shared across classes (and their concurrently
// running modulators), so handlers must treat incoming events as read-only —
// the usual contract of an event system; transforms allocate new objects.
func (p *Publisher) Publish(event mir.Value) (int, error) {
	return p.publish(event, "", true)
}

// PublishOn pushes one event to the subscriptions of one channel only.
func (p *Publisher) PublishOn(channel string, event mir.Value) (int, error) {
	return p.publish(event, channel, false)
}

// publishScratch is the pooled per-publish state of the multi-class fan
// out, so a steady-state broadcast allocates no WaitGroup or error slice
// per event.
type publishScratch struct {
	wg      sync.WaitGroup
	reached atomic.Int64
	mu      sync.Mutex
	errs    []error
}

var scratchPool = sync.Pool{New: func() any { return new(publishScratch) }}

func (p *Publisher) publish(event mir.Value, channel string, broadcast bool) (int, error) {
	views := p.classes.snapshot()
	var single classView
	matched := 0
	for _, v := range views {
		if broadcast || v.class.key.channel == channel {
			single = v
			matched++
		}
	}
	switch matched {
	case 0:
		return 0, nil
	case 1:
		// The common case — everyone on one plan — runs inline: no
		// goroutine, no WaitGroup, no error slice.
		return p.publishClass(single.class, single.members, event)
	}
	// Fan out concurrently across classes: each class has its own
	// modulator, and per-subscription ordering is preserved because one
	// Publish call enqueues one frame per subscription.
	sc := scratchPool.Get().(*publishScratch)
	sc.reached.Store(0)
	for _, v := range views {
		if !broadcast && v.class.key.channel != channel {
			continue
		}
		v := v
		sc.wg.Add(1)
		go func() {
			defer sc.wg.Done()
			n, err := p.publishClass(v.class, v.members, event)
			sc.reached.Add(int64(n))
			if err != nil {
				sc.mu.Lock()
				sc.errs = append(sc.errs, err)
				sc.mu.Unlock()
			}
		}()
	}
	sc.wg.Wait()
	reached := int(sc.reached.Load())
	var err error
	if len(sc.errs) > 0 {
		err = errors.Join(sc.errs...)
		sc.errs = sc.errs[:0]
	}
	scratchPool.Put(sc)
	return reached, err
}

// publishClass modulates the event once for one class and fans the result
// out to every member: shared histograms observe once, the marshalled
// frame is refcounted across the members' logs, and per-member work
// reduces to counter updates and one log append. The only blocking here is
// an append under the Block policy; transport writes happen on each
// subscription's sender goroutine.
func (p *Publisher) publishClass(c *planClass, members []*subscription, event mir.Value) (int, error) {
	if len(members) == 0 {
		return 0, nil
	}
	start := time.Now()
	p.modRuns.Add(1)
	out, err := c.mod.Process(event)
	modDur := time.Since(start)
	if err != nil {
		return 0, p.classModFault(c, members, err)
	}
	p.modulationsSaved.Add(uint64(len(members) - 1))
	c.hists.observe(out.SplitPSE, modDur, out.WireBytes, out.ModWork)
	tr := p.cfg.Tracer
	traced := tr.Enabled()
	reached := 0
	var errs []error
	if out.Suppressed {
		saved := uint64(out.RawBytes)
		for _, s := range members {
			s.metrics.published.Add(1)
			s.metrics.suppressed.Add(1)
			s.metrics.bytesSaved.Add(saved)
			if traced {
				tracePublish(tr, c.key.channel, s.id, s.planVersion.Load(), out, modDur)
			}
			reached++
		}
	} else {
		var msg any
		if out.Raw != nil {
			msg = out.Raw
		} else {
			msg = out.Cont
		}
		frame, merr := wire.MarshalFrame(msg)
		if merr != nil {
			return 0, merr
		}
		var saved uint64
		if out.RawBytes > int64(frame.Len()) {
			saved = uint64(out.RawBytes - int64(frame.Len()))
		}
		// One reference per member; append consumes each one (on the
		// send, drop and retired paths alike).
		if len(members) > 1 {
			frame.Retain(int32(len(members) - 1))
		}
		for _, s := range members {
			s.metrics.published.Add(1)
			if saved > 0 {
				s.metrics.bytesSaved.Add(saved)
			}
			if traced {
				tracePublish(tr, c.key.channel, s.id, s.planVersion.Load(), out, modDur)
			}
			if qerr := s.pipe.log.append(s.pipe, frame); qerr != nil {
				p.retire(s)
				errs = append(errs, fmt.Errorf("jecho: sub %s: %w", s.id, qerr))
				continue
			}
			reached++
		}
	}
	p.classFeedback(c, members)
	return reached, errors.Join(errs...)
}

// classModFault handles a modulation fault for every member of the class:
// the fault is attributed to every split edge of the active plan — the
// plan as a whole is what's broken — once on the shared collector (the
// counts travel in every member's next feedback frame) and once on each
// member's breaker, which degrades that member's plan (migrating it out of
// this class) when the failures cluster.
func (p *Publisher) classModFault(c *planClass, members []*subscription, err error) error {
	plan := c.mod.Plan()
	for _, id := range plan.SplitIDs() {
		c.coll.Fault(id)
	}
	tr := p.cfg.Tracer
	var detail string
	if tr.Enabled() {
		detail = fmt.Sprintf("%s: %v", partition.FaultClassOf(err), err)
	}
	errs := make([]error, 0, len(members))
	for _, s := range members {
		s.metrics.modFailures.Add(1)
		if detail != "" {
			tr.Emit(obsv.Event{
				Kind: obsv.EvModFault, Channel: c.key.channel, Sub: s.id,
				PSE: obsv.NoPSE, Plan: s.planVersion.Load(), Detail: detail,
			})
		}
		tripped := false
		for _, id := range plan.SplitIDs() {
			if s.breaker.Fail(id) {
				s.metrics.breakerTrips.Add(1)
				tripped = true
			}
		}
		if tripped {
			p.degrade(s)
		}
		errs = append(errs, fmt.Errorf("jecho: sub %s: %w", s.id, err))
	}
	return errors.Join(errs...)
}

// classFeedback enqueues rate-triggered sender-side profiling feedback
// (§2.5) for the members whose trigger is due, snapshotting the shared
// class collector. Feedback coalesces to the latest snapshot instead of
// queueing, so a slow peer never accumulates stale reports. The publisher
// always installs RateTriggers, which only consume the message count, so
// the per-event cost is one uint64 comparison per member — the collector
// snapshot is built lazily, only when a trigger fires.
func (p *Publisher) classFeedback(c *planClass, members []*subscription) {
	msgs := c.coll.Messages()
	for _, s := range members {
		s.fbMu.Lock()
		due := s.trigger.ShouldReport(nil, msgs)
		s.fbMu.Unlock()
		if !due {
			continue
		}
		fb := c.coll.ToWire(c.compiled.Prog.Name)
		// Carry the member's own plan version so its subscriber can skip
		// past versions the degrade path forced locally, and re-push when
		// the publisher diverged from its last plan.
		fb.PlanVersion = s.planVersion.Load()
		data, err := wire.Marshal(fb)
		if err != nil {
			continue
		}
		s.pipe.enqueueFeedback(data)
	}
}
