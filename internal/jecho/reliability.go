package jecho

import (
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/obsv"
)

// Reliability selects a subscription's delivery contract.
type Reliability int

const (
	// BestEffort is the classic fire-and-forget channel: no sequence
	// envelopes, no retention, no acks. The publish path keeps its
	// zero-allocation guarantee.
	BestEffort Reliability = iota
	// AtLeastOnce sequences every event per subscription, retains sent
	// frames in its publisher-side log, byte-budgeted, until the
	// subscriber's cumulative ack releases them, and resumes mid-stream
	// across reconnects by re-sending the unacked tail. A live connection is
	// an ordered stream: every seq it skips (an overflow eviction, or a
	// resume reaching past what the log kept) is declared Lost in order and
	// counted as DataLoss — loss is loud, never silent. A seq arriving
	// beyond the next expected one means the link is broken: the subscriber
	// closes it and resumes.
	AtLeastOnce
)

// String names the mode for logs and tables.
func (r Reliability) String() string {
	switch r {
	case BestEffort:
		return "best-effort"
	case AtLeastOnce:
		return "at-least-once"
	default:
		return "unknown"
	}
}

// DefaultReplayRingBytes bounds the sent-but-unacked bytes one reliable
// subscription retains when the publisher config leaves ReplayRingBytes
// zero.
const DefaultReplayRingBytes = 256 << 10

// DefaultAckEvery is how many delivered events elapse between standalone
// cumulative acks when the subscriber config leaves AckEvery zero. Idle
// heartbeats piggyback the ack regardless, so this only paces the
// steady-state release of retained frames.
const DefaultAckEvery = 32

// maxOrphanRelStates caps how many detached reliable-delivery states (logs
// + epochs of subscriptions whose connection died) a publisher
// retains awaiting resume. Beyond it the oldest orphan is dropped, frames
// released — a reconnect after that is handed a fresh stream under a new
// epoch, which the subscriber detects via the StreamStart handshake,
// resetting its dedup state and counting a StreamReset (the dropped
// stream's undelivered tail is unrecoverable and its size unknowable, so
// the break is surfaced as a loud reset rather than a fabricated DataLoss
// count).
const maxOrphanRelStates = 64

// streamEpoch generates stream epochs: process-unique via the atomic
// counter, unique across publisher restarts via the wall-clock base. An
// epoch identifies one relState's sequence numbering, so a resuming
// subscriber can tell "same stream, resume at ResumeSeq" from "fresh
// stream, my resume point is meaningless" — without it, a fresh stream
// re-sequencing from 1 toward a subscriber whose contig is N would have
// its first N events silently dropped as duplicates.
var (
	streamEpochOnce sync.Once
	streamEpochBase uint64
	streamEpochSeq  atomic.Uint64
)

func nextStreamEpoch() uint64 {
	streamEpochOnce.Do(func() { streamEpochBase = uint64(time.Now().UnixNano()) })
	e := streamEpochBase + streamEpochSeq.Add(1)
	if e == 0 { // 0 is the receiver's "no stream adopted" sentinel
		e = 1
	}
	return e
}

// relKey identifies a delivery stream across reconnects: the resubscribe
// handshake carries the same subscriber name, channel and handler, so the
// replacement subscription adopts the old stream's state and resumes
// mid-stream.
type relKey struct {
	subscriber string
	channel    string
	handler    string
}

// relState is the publisher-side half of one at-least-once stream: its
// sendLog, whose positions are the delivery seqs, plus the epoch that
// names the numbering. It outlives the subscription that created it —
// retire detaches it into the publisher's orphan set so a resubscribe can
// adopt it and resume.
//
// A live connection is an ordered stream, so the retained entries serve
// only resume: they are re-sent when a subscriber reconnects, never on a
// live link. Every sequence number a connection skips — an entry DropOldest
// moved the cursor past, or the budget-evicted prefix of a resume — is
// declared Lost in order by that connection's sender goroutine
// (sendPipeline.declareSkip).
type relState struct {
	log *sendLog
	// epoch identifies this state's sequence numbering in the StreamStart
	// handshake. Immutable after newRelState.
	epoch uint64

	// Orphan bookkeeping, guarded by the publisher's relMu. registered
	// reports the state lives in the publisher's resume map; an
	// unregistered state (duplicate subscription triple) is closed on
	// retire instead of parked. owner is the attached subscription (nil
	// while detached).
	attached   bool
	registered bool
	owner      *subscription
	detachedAt time.Time
}

func newRelState(budget, depth int, policy OverflowPolicy) *relState {
	if budget == 0 {
		budget = DefaultReplayRingBytes
	}
	l := newSendLog(depth, policy, budget)
	l.occupancy = obsv.NewHistogram(obsv.SizeBuckets)
	return &relState{log: l, epoch: nextStreamEpoch()}
}

// resumePoint turns a reconnect handshake's resume point into the last
// seq the new connection counts as delivered, for sendLog.attach. A resume
// point stamped with a different epoch belongs to a dead stream (publisher
// restart, evicted orphan, duplicate-triple fresh state) and says nothing
// about this stream's numbering: it acks nothing, and the connection
// starts from 0, as the subscriber does once it resets on this stream's
// StreamStart.
func (r *relState) resumePoint(seq, epoch uint64) uint64 {
	if epoch != r.epoch {
		return 0
	}
	return seq
}

// acquireRelState finds or creates the delivery stream for key and attaches
// it to owner. A detached state (previous connection died) is adopted —
// that is what makes resume work. A state still attached to a live
// subscription means a duplicate (subscriber, channel, handler) triple; the
// newcomer gets a fresh stream rather than corrupting the live one.
func (p *Publisher) acquireRelState(key relKey, owner *subscription) *relState {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	if p.relStates == nil {
		p.relStates = make(map[relKey]*relState)
	}
	st := p.relStates[key]
	if st == nil || st.attached {
		st = newRelState(p.cfg.ReplayRingBytes, p.cfg.QueueDepth, p.cfg.OverflowPolicy)
		if p.relStates[key] == nil {
			p.relStates[key] = st
			st.registered = true
		}
	}
	st.attached = true
	st.owner = owner
	return st
}

// staleStreamOwner returns the live subscription still attached to key's
// delivery stream when a handshake resumes that very stream (resumeEpoch
// names it). A subscriber holds one connection at a time, so such a resume
// proves the attached session's link is dead even if its read loop has not
// noticed yet — a half-open link, or a cut whose error has not reached the
// control goroutine — or is retiring but has not detached the stream yet.
// The caller retires it (retire waits for one already in progress) so the
// resume adopts the stream instead of starting a fresh one. Nil when there
// is no such owner.
func (p *Publisher) staleStreamOwner(key relKey, resumeEpoch uint64) *subscription {
	p.relMu.Lock()
	defer p.relMu.Unlock()
	if st := p.relStates[key]; resumeEpoch != 0 && st != nil && st.attached && st.epoch == resumeEpoch {
		return st.owner
	}
	return nil
}

// detachRelState parks a retiring subscription's stream for adoption by a
// resubscribe, evicting the oldest orphan beyond the cap.
func (p *Publisher) detachRelState(st *relState) {
	if st == nil {
		return
	}
	p.relMu.Lock()
	st.attached = false
	st.owner = nil
	st.detachedAt = time.Now()
	if !st.registered {
		p.relMu.Unlock()
		st.log.close()
		return
	}
	var (
		oldestKey relKey
		oldest    *relState
		orphans   int
	)
	for k, s := range p.relStates {
		if s.attached {
			continue
		}
		orphans++
		if oldest == nil || s.detachedAt.Before(oldest.detachedAt) {
			oldest, oldestKey = s, k
		}
	}
	if orphans > maxOrphanRelStates && oldest != nil {
		delete(p.relStates, oldestKey)
	} else {
		oldest = nil
	}
	p.relMu.Unlock()
	if oldest != nil {
		oldest.log.close()
	}
}

// closeRelStates releases every stream on publisher shutdown.
func (p *Publisher) closeRelStates() {
	p.relMu.Lock()
	states := p.relStates
	p.relStates = nil
	p.relMu.Unlock()
	for _, st := range states {
		st.log.close()
	}
}

// relReceiver is the subscriber-side half of one at-least-once stream:
// dedup, gap detection and cumulative-ack pacing over the delivery
// sequence numbers unwrapped from SeqEvent envelopes. A live connection
// delivers seqs in order, so the receiver tracks only the highest one.
type relReceiver struct {
	mu       sync.Mutex
	epoch    uint64 // adopted stream epoch; 0 = none yet
	contig   uint64 // every seq <= contig has been received or declared Lost
	sinceAck uint64
	ackEvery uint64
}

func newRelReceiver(ackEvery uint64) *relReceiver {
	if ackEvery == 0 {
		ackEvery = DefaultAckEvery
	}
	return &relReceiver{ackEvery: ackEvery}
}

// admission classifies one received delivery seq.
type admission int

const (
	// admitNext: the next seq in order; deliver it.
	admitNext admission = iota
	// admitDuplicate: at or below contig; drop it before the handler.
	admitDuplicate
	// admitGap: beyond contig+1. An ordered link never skips a seq
	// without declaring it Lost first, so the link is broken.
	admitGap
)

// admit classifies seq and, for the next seq in order, advances contig.
// ack is non-zero when the standalone-ack pace elapsed: the contiguous seq
// to ack.
func (r *relReceiver) admit(seq uint64) (a admission, ack uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case seq <= r.contig:
		return admitDuplicate, 0
	case seq > r.contig+1:
		return admitGap, 0
	}
	r.contig = seq
	r.sinceAck++
	if r.sinceAck >= r.ackEvery {
		r.sinceAck = 0
		ack = r.contig
	}
	return admitNext, ack
}

// lost processes a Lost notice: every seq in [from, to] not yet received
// counts as data loss, and the receiver advances past the range so
// delivery resumes. A notice starting beyond contig+1 would skip seqs
// nobody declared: gap reports it, and nothing changes.
func (r *relReceiver) lost(from, to uint64) (missing uint64, gap bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from > r.contig+1 {
		return 0, true
	}
	if to > r.contig {
		missing = to - r.contig
		r.contig = to
	}
	return missing, false
}

// contiguous returns the highest contiguously received seq — the resume
// point a reconnect handshake carries and the value every ack reports.
func (r *relReceiver) contiguous() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.contig
}

// resumePoint returns the reconnect handshake's ResumeSeq/ResumeEpoch
// pair: the last contiguous seq and the epoch of the stream it counts.
func (r *relReceiver) resumePoint() (seq, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.contig, r.epoch
}

// streamStart processes the publisher's StreamStart handshake frame. The
// first epoch ever seen is adopted silently; the same epoch again (a
// resumed stream) is a no-op. A *different* epoch means the old stream is
// dead — its numbering no longer describes anything the publisher will
// send — so every piece of per-stream state resets before the new
// stream's seq 1 arrives; otherwise admit would drop the first contig
// events of the new stream as duplicates of the old one. reset reports
// that a live stream was discarded, so the caller can count and log it:
// the old stream's undelivered tail is unrecoverable and its size
// unknowable from this side.
func (r *relReceiver) streamStart(epoch uint64) (reset bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch == r.epoch {
		return false
	}
	reset = r.epoch != 0
	r.epoch = epoch
	if reset {
		r.contig = 0
		r.sinceAck = 0
	}
	return reset
}
