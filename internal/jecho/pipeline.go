package jecho

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// OverflowPolicy decides what happens when a subscription's bounded
// outbound queue is full — i.e. how a publisher degrades under a slow
// receiver (the paper's §2.5 slow-peer scenario, made a policy instead of
// an accident of socket buffering).
type OverflowPolicy int

const (
	// Block makes Publish wait for queue space: lossless, but one stalled
	// peer eventually throttles publishes addressed to it (never those to
	// other subscriptions, which have their own queues and senders).
	Block OverflowPolicy = iota
	// DropNewest discards the event being published when the queue is
	// full: the peer keeps receiving the oldest backlog first.
	DropNewest
	// DropOldest evicts the oldest queued frame to admit the new one: the
	// peer skips ahead to fresher events, the natural choice for
	// last-value streams such as image frames or sensor readings.
	DropOldest
)

// String names the policy for logs and tables.
func (p OverflowPolicy) String() string {
	switch p {
	case Block:
		return "block"
	case DropNewest:
		return "drop-newest"
	case DropOldest:
		return "drop-oldest"
	default:
		return "unknown"
	}
}

// DefaultQueueDepth is the outbound queue bound when the config leaves
// QueueDepth zero.
const DefaultQueueDepth = 64

// errRetired reports an append to (or a plan for) a subscription that has
// been retired: its sender shut down, peer dead or publisher closing.
var errRetired = errors.New("jecho: subscription retired")

// batchConfig is the per-subscription batching policy resolved at
// handshake time: zero Bytes (the publisher left BatchBytes unset) disables
// batching.
type batchConfig struct {
	// Bytes caps the coalesced payload of one batch frame. The first
	// frame always fits regardless of size.
	Bytes int
	// Delay is how long the sender lingers for more frames after the
	// first, when the queue alone did not fill the batch (0 = send what
	// the queue held, no waiting).
	Delay time.Duration
	// hists receives per-batch entry counts and fill ratios (nil = none).
	hists *batchHistograms
}

// sendPipeline is the asynchronous sender of one subscription: it drains
// the subscription's sendLog and a coalescing slot for profiling feedback
// from a dedicated goroutine (run). Publish appends frames to the log and
// returns; only the sender goroutine ever touches the connection for
// writes, so a stalled or dead peer blocks its own pipeline and nothing
// else. The publisher marshals an event once per plan-equivalence class and
// Retains one reference per member, so the same frame bytes flow through
// every member's log without copying.
//
// Feedback frames never queue behind events: the newest snapshot overwrites
// any pending one (coalesce-to-latest), because a stale profiling report is
// worthless once a fresher one exists while events are individually
// meaningful.
type sendPipeline struct {
	conn    transport.Conn
	log     *sendLog
	metrics *channelMetrics
	sup     supervision
	batch   batchConfig
	// reliable wraps every outgoing event frame in a SeqEvent envelope
	// carrying its log position, the delivery seq (AtLeastOnce
	// subscriptions only). Best-effort pipelines never touch the envelope
	// path.
	reliable bool
	// lastSeq is the last delivery seq this connection wrote or declared
	// Lost (set by attach, then sender goroutine only): the resume point, or
	// 0 on a fresh stream. A run starting above lastSeq+1 makes the sender
	// declare the seqs between Lost first, so the peer sees every seq in
	// order. lostFn, when set, accounts for each declaration. Positions
	// below replayEnd were queued by the resume; each one written counts as
	// Replayed.
	lastSeq   uint64
	replayEnd uint64
	lostFn    func(from, to uint64)

	// Sender-goroutine only: heartbeat sequence plus the reusable buffers
	// of the write path. The transports copy on WriteFrame, so the buffers
	// (and the taken frames' references) are free as soon as it returns.
	hbSeq uint64
	hbBuf []byte
	// born anchors heard, the monotonic time (since born) the publisher
	// last read a frame from the peer; see writeHeartbeat.
	born     time.Time
	heard    atomic.Int64
	batchBuf []byte
	wrapBuf  []byte
	frames   []*wire.Frame
	entries  [][]byte

	// ready (cap 1) tells the sender the log has queued entries.
	ready chan struct{}
	// ctrl carries small marshalled control frames (heartbeat echo
	// replies) that must reach the peer through the sender goroutine but
	// are neither events nor feedback.
	ctrl chan []byte

	stop     chan struct{} // closed by shutdown: stops the sender
	done     chan struct{} // closed when the sender goroutine exits
	stopOnce sync.Once

	// fb is the pending feedback frame and fbInFlight marks one the sender
	// took whose write has not returned (for good, if the write failed).
	// They change under fbMu together with the staged, sent and coalesced
	// counters, so every staged frame is accounted for as sent, coalesced,
	// in flight or pending (feedbackCut).
	fbMu       sync.Mutex
	fb         []byte
	fbInFlight bool
	fbReady    chan struct{} // cap 1: "a feedback frame is pending"

	// failed is invoked (once, from the sender goroutine) on a transport
	// write error, before the sender exits; the publisher retires the
	// subscription there.
	failed func(error)
}

// newSendPipeline builds the sender of log over conn. It takes nothing
// until log.attach makes it the log's owner.
func newSendPipeline(conn transport.Conn, log *sendLog, sup supervision, batch batchConfig, m *channelMetrics, failed func(error)) *sendPipeline {
	return &sendPipeline{
		conn:    conn,
		log:     log,
		sup:     sup,
		batch:   batch,
		metrics: m,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		ready:   make(chan struct{}, 1),
		fbReady: make(chan struct{}, 1),
		ctrl:    make(chan []byte, 8),
		failed:  failed,
		born:    time.Now(),
	}
}

// heardFrom records that a frame from the peer just arrived.
func (p *sendPipeline) heardFrom() { p.heard.Store(int64(time.Since(p.born))) }

// signal wakes the sender for queued entries.
func (p *sendPipeline) signal() {
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// enqueueControl offers a small marshalled control frame (a heartbeat
// echo reply) to the sender goroutine; the caller yields ownership of data.
// It never blocks: the control read loop calls it, and a sender stalled on
// a slow peer must not stop that loop from reading the peer's acks — or
// the peer, unable to write them, stalls too. A frame that finds the lane
// full is dropped and reported false: its probe simply goes unanswered.
func (p *sendPipeline) enqueueControl(data []byte) bool {
	select {
	case p.ctrl <- data:
		return true
	default:
		return false
	}
}

// enqueueFeedback stages a profiling feedback frame, replacing any pending
// one (coalesce-to-latest).
func (p *sendPipeline) enqueueFeedback(data []byte) {
	p.fbMu.Lock()
	p.metrics.feedbackStaged.Add(1)
	if p.fb != nil {
		p.metrics.feedbackCoalesced.Add(1)
	}
	p.fb = data
	p.fbMu.Unlock()
	select {
	case p.fbReady <- struct{}{}:
	default:
	}
}

func (p *sendPipeline) takeFeedback() []byte {
	p.fbMu.Lock()
	defer p.fbMu.Unlock()
	fb := p.fb
	p.fb = nil
	p.fbInFlight = fb != nil
	return fb
}

// feedbackWritten retires the in-flight feedback frame as sent.
func (p *sendPipeline) feedbackWritten() {
	p.fbMu.Lock()
	p.fbInFlight = false
	p.metrics.feedbackSent.Add(1)
	p.fbMu.Unlock()
}

// feedbackCut loads the feedback counters into m in one cut under fbMu and
// reports the frames in flight and pending (0 or 1 each), so that
// FeedbackStaged == FeedbackSent + FeedbackCoalesced + inFlight + pending
// holds exactly.
func (p *sendPipeline) feedbackCut(m *ChannelMetrics) (inFlight, pending int) {
	p.fbMu.Lock()
	defer p.fbMu.Unlock()
	m.FeedbackStaged = p.metrics.feedbackStaged.Load()
	m.FeedbackSent = p.metrics.feedbackSent.Load()
	m.FeedbackCoalesced = p.metrics.feedbackCoalesced.Load()
	if p.fbInFlight {
		inFlight = 1
	}
	if p.fb != nil {
		pending = 1
	}
	return inFlight, pending
}

// run is the sender goroutine: it drains the log and the feedback slot
// until shutdown or a write error, and fills idle gaps with heartbeat
// frames so the peer's silence window never expires on a healthy but
// quiet channel. When batching is configured (and was negotiated at
// handshake), a backlog of queued event frames leaves as one batch frame.
func (p *sendPipeline) run() {
	defer close(p.done)
	// Detach from the log on any exit, so entries still queued count as
	// dropped and the accounting identity enqueued = sent + dropped
	// survives a write error as well as shutdown.
	defer p.shutdown()
	var heartbeat <-chan time.Time
	if p.sup.interval > 0 {
		t := time.NewTicker(p.sup.interval)
		defer t.Stop()
		heartbeat = t.C
	}
	for {
		// Check stop first so shutdown wins over a backlog.
		select {
		case <-p.stop:
			return
		default:
		}
		select {
		case <-p.ready:
			if !p.sendEvents() {
				return
			}
		case data := <-p.ctrl:
			if !p.write(data, true) {
				return
			}
		case <-p.fbReady:
			if fb := p.takeFeedback(); fb != nil {
				if !p.write(fb, true) {
					return
				}
				p.feedbackWritten()
			}
		case <-heartbeat:
			if !p.writeHeartbeat() {
				return
			}
		case <-p.stop:
			return
		}
	}
}

// sendEvents takes one run from the log — a single entry, or with batching
// on as many as fit BatchBytes after a BatchDelay linger — and writes it:
// one entry as its own frame, more as one batch frame, so a peer on a quiet
// channel never pays the batch header. On a reliable pipeline a run that
// starts past the last seq written is preceded by a Lost notice for the
// seqs skipped.
func (p *sendPipeline) sendEvents() bool {
	if p.batch.Delay > 0 {
		p.linger()
	}
	first, more := p.log.take(p, p.batch.Bytes)
	if len(p.frames) == 0 {
		return true
	}
	if more {
		p.signal()
	}
	ok := true
	if gapFrom := p.lastSeq + 1; p.reliable && first > gapFrom {
		ok = p.declareSkip(gapFrom, first-1)
	}
	ok = ok && p.writeRun(first, p.frames)
	if !ok {
		// The write failed with the run already taken: those frames were
		// enqueued but will never be sent, so they are dropped.
		p.metrics.dropped.Add(uint64(len(p.frames)))
	}
	// The transport copied the bytes (or the write failed); either way the
	// references are consumed here. Clear the scratch so the pooled frames
	// are not pinned until the next run.
	for i, f := range p.frames {
		f.Release()
		p.frames[i] = nil
	}
	p.frames = p.frames[:0]
	return ok
}

// linger waits up to BatchDelay for a non-empty queue to reach
// BatchBytes, so a publisher in mid-burst fills the batch before it is
// taken.
func (p *sendPipeline) linger() {
	if n := p.log.queuedBytes(p.batch.Bytes); n == 0 || n >= p.batch.Bytes {
		return
	}
	timer := time.NewTimer(p.batch.Delay)
	defer timer.Stop()
	for {
		select {
		case <-p.ready:
			if p.log.queuedBytes(p.batch.Bytes) >= p.batch.Bytes {
				return
			}
		case <-timer.C:
			return
		case <-p.stop:
			return
		}
	}
}

// writeRun writes the consecutive log entries run, the first at position
// first: one alone goes out as its own frame, more as one batch frame.
func (p *sendPipeline) writeRun(first uint64, run []*wire.Frame) bool {
	total := 0
	for _, f := range run {
		total += f.Len()
	}
	var data []byte
	if len(run) == 1 {
		data = p.eventBytes(first, run[0])
	} else {
		p.entries = p.entries[:0]
		if p.reliable {
			// Batch entries must each carry their own envelope. Build them
			// contiguously in one pre-sized buffer so the entry subslices
			// stay valid while AppendBatch copies them out.
			need := len(run)*wire.SeqEventOverhead + total
			if cap(p.wrapBuf) < need {
				p.wrapBuf = make([]byte, 0, need)
			}
			p.wrapBuf = p.wrapBuf[:0]
			for i, f := range run {
				start := len(p.wrapBuf)
				p.wrapBuf = wire.AppendSeqEvent(p.wrapBuf, first+uint64(i), f.Bytes())
				p.entries = append(p.entries, p.wrapBuf[start:len(p.wrapBuf):len(p.wrapBuf)])
			}
		} else {
			for _, f := range run {
				p.entries = append(p.entries, f.Bytes())
			}
		}
		p.batchBuf = wire.AppendBatch(p.batchBuf[:0], p.entries)
		data = p.batchBuf
	}
	if !p.write(data, false) {
		return false
	}
	n := uint64(len(run))
	p.lastSeq = first + n - 1
	if first < p.replayEnd {
		p.metrics.replayed.Add(min(first+n, p.replayEnd) - first)
	}
	p.metrics.eventsSent.Add(n)
	if n > 1 {
		p.metrics.batchesSent.Add(1)
		p.metrics.batchedEvents.Add(n)
	}
	p.batch.hists.observe(len(run), total, p.batch.Bytes)
	return true
}

// eventBytes resolves the wire bytes of one log entry: reliable pipelines
// wrap the shared frame bytes in a SeqEvent envelope built in the recycled
// wrapBuf (the envelope is per-subscription; the frame bytes stay shared
// across the class), best-effort ships them as-is.
func (p *sendPipeline) eventBytes(seq uint64, f *wire.Frame) []byte {
	if !p.reliable {
		return f.Bytes()
	}
	p.wrapBuf = wire.AppendSeqEvent(p.wrapBuf[:0], seq, f.Bytes())
	return p.wrapBuf
}

// declareSkip writes the Lost notice for [from, to], the seqs this
// connection skipped, ahead of the frame after them, then reports the
// declaration to lostFn for accounting.
func (p *sendPipeline) declareSkip(from, to uint64) bool {
	data, err := wire.Marshal(&wire.Lost{From: from, To: to})
	if err != nil {
		return true // cannot happen; never kill the sender for it
	}
	if !p.write(data, true) {
		return false
	}
	p.lastSeq = to
	if p.lostFn != nil {
		p.lostFn(from, to)
	}
	return true
}

// writeHeartbeat sends one idle heartbeat. It carries Seq 0, which the
// peer does not echo, unless the peer has been silent for probeAfter: then
// it is a probe (Seq > 0) whose echo keeps this end's silence window open
// for a peer that sends no heartbeats of its own.
func (p *sendPipeline) writeHeartbeat() bool {
	var seq uint64
	if p.sup.window > 0 && time.Since(p.born)-time.Duration(p.heard.Load()) >= p.sup.probeAfter() {
		p.hbSeq++
		seq = p.hbSeq
	}
	var err error
	p.hbBuf, err = wire.AppendMarshal(p.hbBuf[:0], &wire.Heartbeat{Seq: seq})
	if err != nil {
		return true // cannot happen; never kill the sender for it
	}
	if !p.write(p.hbBuf, true) {
		return false
	}
	p.metrics.heartbeatsSent.Add(1)
	return true
}

// write ships one frame. control routes the bytes to the control-traffic
// counter (heartbeats, feedback) instead of the event byte counter that
// the bytes-saved ratio divides by.
func (p *sendPipeline) write(data []byte, control bool) bool {
	p.sup.armWrite(p.conn)
	if err := p.conn.WriteFrame(data); err != nil {
		p.metrics.sendErrors.Add(1)
		if p.failed != nil {
			p.failed(err)
		}
		return false
	}
	if control {
		p.metrics.controlBytes.Add(uint64(len(data)) + transport.HeaderSize)
	} else {
		p.metrics.bytesOnWire.Add(uint64(len(data)) + transport.HeaderSize)
	}
	return true
}

// shutdown stops the sender and detaches it from the log, waking pending
// Block appends. Idempotent; it does not close the connection (the owner
// does) and does not wait for the sender goroutine.
func (p *sendPipeline) shutdown() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.log.detach(p)
	})
}
