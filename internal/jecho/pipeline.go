package jecho

import (
	"errors"
	"sync"
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

// errRetired reports an enqueue on (or a plan for) a subscription that has
// been retired: its sender shut down, peer dead or publisher closing.
var errRetired = errors.New("jecho: subscription retired")

// batchConfig is the per-subscription batching policy resolved at
// handshake time: zero Bytes disables batching (the peer speaks protocol
// v3, or the publisher left BatchBytes unset).
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

// sendPipeline is the asynchronous sender of one subscription: a bounded
// queue of refcounted event frames plus a coalescing slot for profiling
// feedback, drained by a dedicated goroutine (run). Publish hands frames
// over and returns; only the sender goroutine ever touches the connection
// for writes, so a stalled or dead peer blocks its own pipeline and
// nothing else.
//
// Ownership: enqueue consumes one frame reference on every path — queued
// frames carry their reference until the sender writes (or drops) them,
// and frames rejected by policy, shed by eviction or refused by a retired
// pipeline are released immediately. The publisher marshals an event once
// per plan-equivalence class and Retains one reference per member, so the
// same frame bytes flow through every member's pipeline without copying.
//
// Feedback frames never queue behind events: the newest snapshot overwrites
// any pending one (coalesce-to-latest), because a stale profiling report is
// worthless once a fresher one exists while events are individually
// meaningful.
type sendPipeline struct {
	conn    transport.Conn
	queue   chan queuedFrame
	policy  OverflowPolicy
	metrics *channelMetrics
	sup     supervision
	batch   batchConfig
	// reliable wraps every outgoing event frame in a SeqEvent envelope
	// carrying the queued delivery sequence (protocol v5, AtLeastOnce
	// subscriptions only). Best-effort pipelines never touch the envelope
	// path.
	reliable bool

	// Sender-goroutine only: heartbeat sequence plus the reusable buffers
	// of the batching path. The transports copy on WriteFrame, so the
	// buffers (and batched frames' references) are free as soon as it
	// returns.
	hbSeq    uint64
	hbBuf    []byte
	batchBuf []byte
	wrapBuf  []byte
	frames   []queuedFrame
	entries  [][]byte

	// ctrl carries small marshalled control frames (Lost notices) that
	// must reach the peer through the sender goroutine but are neither
	// events nor feedback.
	ctrl chan []byte

	stop     chan struct{} // closed by shutdown: unblocks enqueuers + sender
	done     chan struct{} // closed when the sender goroutine exits
	stopOnce sync.Once

	fbMu    sync.Mutex
	fb      []byte
	fbReady chan struct{} // cap 1: "a feedback frame is pending"

	// failed is invoked (once, from the sender goroutine) on a transport
	// write error, before the sender exits; the publisher retires the
	// subscription there.
	failed func(error)

	// probe, when set, supplies the Seq of each idle heartbeat, minting it
	// from the subscription's shared probe counter and registering its send
	// time with the link estimator — so heartbeat echoes resolve RTT
	// samples and never collide with the echo-reply probes the control
	// loop mints from the same counter. Nil keeps the private hbSeq.
	probe func() uint64
}

// queuedFrame is one outbound queue slot: the refcounted event frame plus,
// on reliable pipelines, the delivery sequence its SeqEvent envelope will
// carry. Best-effort pipelines leave seq zero and never wrap.
type queuedFrame struct {
	f   *wire.Frame
	seq uint64
}

func newSendPipeline(conn transport.Conn, depth int, policy OverflowPolicy, sup supervision, batch batchConfig, m *channelMetrics, failed func(error)) *sendPipeline {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &sendPipeline{
		conn:    conn,
		queue:   make(chan queuedFrame, depth),
		policy:  policy,
		sup:     sup,
		batch:   batch,
		metrics: m,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		fbReady: make(chan struct{}, 1),
		ctrl:    make(chan []byte, 8),
		failed:  failed,
	}
}

// enqueue admits one event frame under the overflow policy, consuming one
// frame reference on every path. A nil return means the frame was queued
// or dropped by policy; errRetired means the pipeline is gone and the
// caller should treat the subscription as dead.
func (p *sendPipeline) enqueue(q queuedFrame) error {
	select {
	case <-p.stop:
		q.f.Release()
		return errRetired
	default:
	}
	switch p.policy {
	case DropNewest:
		select {
		case p.queue <- q:
		default:
			p.metrics.dropped.Add(1)
			q.f.Release()
			return nil
		}
	case DropOldest:
		for {
			select {
			case p.queue <- q:
			case <-p.stop:
				q.f.Release()
				return errRetired
			default:
				// Queue full: evict one old frame and retry. The inner
				// select is non-blocking because the sender may have
				// drained the queue in the meantime.
				select {
				case old := <-p.queue:
					p.metrics.dropped.Add(1)
					old.f.Release()
				default:
				}
				continue
			}
			break
		}
	default: // Block
		select {
		case p.queue <- q:
		case <-p.stop:
			q.f.Release()
			return errRetired
		}
	}
	p.metrics.enqueued.Add(1)
	p.metrics.noteDepth(len(p.queue))
	// If the pipeline retired between the commit above and here, the
	// sender's shutdown drain may already have swept the queue and missed
	// this frame. Every queued frame is doomed once stop is closed, so
	// popping any one frame and counting it dropped keeps the identity
	// enqueued = sent + dropped exact: each post-drain committer removes
	// one frame, and a pop only finds the queue empty when some other
	// committer's pop already took the frame this one added.
	select {
	case <-p.stop:
		select {
		case old := <-p.queue:
			p.metrics.dropped.Add(1)
			old.f.Release()
		default:
		}
		return errRetired
	default:
	}
	return nil
}

// enqueueControl hands a small marshalled control frame (e.g. a Lost
// notice) to the sender goroutine. The caller yields ownership of data; it
// blocks only while the control lane itself is full.
func (p *sendPipeline) enqueueControl(data []byte) error {
	select {
	case p.ctrl <- data:
		return nil
	case <-p.stop:
		return errRetired
	}
}

// enqueueFeedback stages a profiling feedback frame, replacing any pending
// one (coalesce-to-latest).
func (p *sendPipeline) enqueueFeedback(data []byte) {
	p.fbMu.Lock()
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
	return fb
}

// run is the sender goroutine: it drains the queue and the feedback slot
// until shutdown or a write error, and fills idle gaps with heartbeat
// frames so the peer's silence window never expires on a healthy but
// quiet channel. When batching is configured (and was negotiated at
// handshake), a backlog of queued event frames leaves as one batch frame.
func (p *sendPipeline) run() {
	defer close(p.done)
	// Frames still queued when the sender exits were accepted (counted
	// enqueued) but will never reach the wire; count them dropped so the
	// accounting identity enqueued = sent + dropped survives shutdown.
	defer p.drainQueue()
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
		case q := <-p.queue:
			if !p.sendEvents(q) {
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
				p.metrics.feedbackSent.Add(1)
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

// drainQueue empties the outbound queue, counting each abandoned frame as
// dropped and releasing its reference. Runs on the sender goroutine after
// the send loop exits; enqueuers racing past the drain compensate in
// enqueue's post-commit stop recheck.
func (p *sendPipeline) drainQueue() {
	for {
		select {
		case q := <-p.queue:
			p.metrics.dropped.Add(1)
			q.f.Release()
		default:
			return
		}
	}
}

// eventBytes resolves the wire bytes of one queued frame: reliable
// pipelines wrap the shared frame bytes in a SeqEvent envelope built in
// the recycled wrapBuf (the envelope is per-subscription; the frame bytes
// stay shared across the class), best-effort ships them as-is.
func (p *sendPipeline) eventBytes(q queuedFrame) []byte {
	if !p.reliable {
		return q.f.Bytes()
	}
	p.wrapBuf = wire.AppendSeqEvent(p.wrapBuf[:0], q.seq, q.f.Bytes())
	return p.wrapBuf
}

// sendEvents ships the first queued frame and, when batching is on,
// whatever else the queue holds (plus a BatchDelay linger) up to
// BatchBytes, as one batch wire frame. A single frame goes out unwrapped,
// so a v4 peer on a quiet channel never pays the batch header.
func (p *sendPipeline) sendEvents(first queuedFrame) bool {
	if p.batch.Bytes <= 0 {
		ok := p.write(p.eventBytes(first), false)
		first.f.Release()
		if !ok {
			p.metrics.dropped.Add(1)
			return false
		}
		p.metrics.eventsSent.Add(1)
		return true
	}
	p.frames = append(p.frames[:0], first)
	total := first.f.Len()
	// Take what the queue already holds without waiting.
fill:
	for total < p.batch.Bytes {
		select {
		case q := <-p.queue:
			p.frames = append(p.frames, q)
			total += q.f.Len()
		default:
			break fill
		}
	}
	// Linger for stragglers: a publisher in mid-burst refills the queue
	// within the delay window, so the batch amortizes more frames.
	if p.batch.Delay > 0 && total < p.batch.Bytes {
		timer := time.NewTimer(p.batch.Delay)
	linger:
		for total < p.batch.Bytes {
			select {
			case q := <-p.queue:
				p.frames = append(p.frames, q)
				total += q.f.Len()
			case <-timer.C:
				break linger
			case <-p.stop:
				// Ship what was collected; these frames are in flight,
				// not abandoned. The drain handles the rest of the queue.
				break linger
			}
		}
		timer.Stop()
	}
	n := len(p.frames)
	var ok bool
	if n == 1 {
		ok = p.write(p.eventBytes(p.frames[0]), false)
	} else {
		p.entries = p.entries[:0]
		if p.reliable {
			// Batch entries must each carry their own envelope. Build them
			// contiguously in one pre-sized buffer so the entry subslices
			// stay valid while AppendBatch copies them out.
			need := 0
			for _, q := range p.frames {
				need += wire.SeqEventOverhead + q.f.Len()
			}
			if cap(p.wrapBuf) < need {
				p.wrapBuf = make([]byte, 0, need)
			}
			p.wrapBuf = p.wrapBuf[:0]
			for _, q := range p.frames {
				start := len(p.wrapBuf)
				p.wrapBuf = wire.AppendSeqEvent(p.wrapBuf, q.seq, q.f.Bytes())
				p.entries = append(p.entries, p.wrapBuf[start:len(p.wrapBuf):len(p.wrapBuf)])
			}
		} else {
			for _, q := range p.frames {
				p.entries = append(p.entries, q.f.Bytes())
			}
		}
		p.batchBuf = wire.AppendBatch(p.batchBuf[:0], p.entries)
		ok = p.write(p.batchBuf, false)
	}
	// The transport copied the bytes (or the write failed); either way the
	// references are consumed here. Clear the scratch so the pooled frames
	// are not pinned until the next batch.
	for i, q := range p.frames {
		q.f.Release()
		p.frames[i] = queuedFrame{}
	}
	p.frames = p.frames[:0]
	if !ok {
		// The write failed with the frames already dequeued: they were
		// enqueued but will never be sent, so they are dropped.
		p.metrics.dropped.Add(uint64(n))
		return false
	}
	p.metrics.eventsSent.Add(uint64(n))
	if n > 1 {
		p.metrics.batchesSent.Add(1)
		p.metrics.batchedEvents.Add(uint64(n))
	}
	p.batch.hists.observe(n, total, p.batch.Bytes)
	return true
}

func (p *sendPipeline) writeHeartbeat() bool {
	var seq uint64
	if p.probe != nil {
		seq = p.probe()
	} else {
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

// shutdown stops the sender and unblocks pending enqueues. Idempotent; it
// does not close the connection (the owner does) and does not wait for the
// sender goroutine.
func (p *sendPipeline) shutdown() {
	p.stopOnce.Do(func() { close(p.stop) })
}
