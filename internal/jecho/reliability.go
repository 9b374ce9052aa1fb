package jecho

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"methodpart/internal/obsv"
	"methodpart/internal/wire"
)

// Reliability selects a subscription's delivery contract.
type Reliability int

const (
	// BestEffort is the classic fire-and-forget channel: no sequence
	// envelopes, no replay ring, no acks. The publish path keeps its
	// zero-allocation guarantee.
	BestEffort Reliability = iota
	// AtLeastOnce sequences every event per subscription, retains sent
	// frames in a byte-budgeted publisher-side replay ring until the
	// subscriber's cumulative ack releases them, and resumes mid-stream
	// across reconnects by replaying the unacked tail. A live connection is
	// an ordered stream: every seq it skips (an overflow eviction, or a
	// resume reaching past what the ring kept) is declared Lost in order and
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

// DefaultReplayRingBytes bounds one subscription's replay ring when the
// publisher config leaves ReplayRingBytes zero.
const DefaultReplayRingBytes = 256 << 10

// DefaultAckEvery is how many delivered events elapse between standalone
// cumulative acks when the subscriber config leaves AckEvery zero. Idle
// heartbeats piggyback the ack regardless, so this only paces the
// steady-state ring release.
const DefaultAckEvery = 32

// maxOrphanRelStates caps how many detached reliable-delivery states (ring
// + sequence counters of subscriptions whose connection died) a publisher
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

// ringEntry is one staged frame awaiting acknowledgement.
type ringEntry struct {
	f     *wire.Frame
	bytes int
}

// relState is the publisher-side half of one at-least-once stream: the
// per-subscription delivery sequence counter plus the byte-budgeted ring of
// sent-but-unacked frames. It outlives the subscription that created it —
// retire detaches it into the publisher's orphan set so a resubscribe can
// adopt it and resume.
//
// A live connection is an ordered stream, so the ring serves only resume:
// frames are replayed when a subscriber reconnects, never on a live link.
// Every sequence number a connection skips — a frame DropOldest evicted
// from the queue, or the ring-evicted prefix of a resume — is declared Lost
// in order by that connection's sender goroutine (sendPipeline.declareSkip).
type relState struct {
	budget int // ring byte budget; < 0 disables retention (sequencing only)

	// epoch identifies this state's sequence numbering in the StreamStart
	// handshake. Immutable after newRelState.
	epoch uint64

	// enqMu serializes stage+enqueue across concurrently publishing
	// goroutines so pipeline queue order matches sequence order, and holds
	// a resume's replay ahead of every later publish.
	enqMu sync.Mutex

	mu      sync.Mutex
	next    uint64 // next sequence number to assign; first event gets 1
	headSeq uint64 // sequence of ring[0]; ring covers [headSeq, next)
	ring    []ringEntry
	ringLen int // bytes currently retained

	// Orphan bookkeeping, guarded by the publisher's relMu. registered
	// reports the state lives in the publisher's resume map; an
	// unregistered state (duplicate subscription triple) is closed on
	// retire instead of parked. owner is the attached subscription (nil
	// while detached).
	attached   bool
	registered bool
	owner      *subscription
	detachedAt time.Time

	evictions uint64 // guarded by mu; snapshot via stats
	// lossCounted is the highest seq already counted as lost (guarded by
	// mu): a resume after a second cut can declare part of a range again,
	// and only seqs beyond this horizon are counted again.
	lossCounted uint64

	// occupancy samples the ring's retained bytes after every stage, so
	// the exported histogram shows how hard the budget is working.
	occupancy *obsv.Histogram
}

func newRelState(budget int) *relState {
	if budget == 0 {
		budget = DefaultReplayRingBytes
	}
	return &relState{
		budget: budget, epoch: nextStreamEpoch(),
		next: 1, headSeq: 1,
		occupancy: obsv.NewHistogram(obsv.SizeBuckets),
	}
}

// stageAndEnqueue assigns the next delivery sequence to f, retains it in
// the replay ring, and hands it to the pipeline. It consumes the caller's
// frame reference exactly like enqueue does (the ring holds its own). The
// enqMu critical section spans both steps so the queue drains in sequence
// order. Two cases take no sequence number, so they leave no gap: a
// retired pipeline (a resume may already have replayed this stream to its
// successor) and a DropNewest refusal, which a full queue decides here
// because only the sender drains the queue while enqMu is held.
func (r *relState) stageAndEnqueue(pipe *sendPipeline, f *wire.Frame, m *channelMetrics) error {
	r.enqMu.Lock()
	defer r.enqMu.Unlock()
	select {
	case <-pipe.stop:
		f.Release()
		return errRetired
	default:
	}
	if pipe.policy == DropNewest && len(pipe.queue) == cap(pipe.queue) {
		m.dropped.Add(1)
		f.Release()
		return nil
	}
	seq, evicted := r.stage(f)
	if evicted > 0 {
		m.ringEvictions.Add(evicted)
	}
	if err := pipe.enqueue(queuedFrame{f: f, seq: seq}); !errors.Is(err, errRetired) {
		return err
	}
	// The subscription retired after the frame was staged: the ring holds
	// it and a resume replays it, so the event did join the stream. This
	// is the common end of a publish that reveals a gap: its frame reaches
	// the subscriber, which closes the broken link before the enqueue
	// returns.
	return nil
}

// stage assigns a sequence number and retains f in the ring, evicting the
// oldest entries when the byte budget overflows.
func (r *relState) stage(f *wire.Frame) (seq uint64, evicted uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq = r.next
	r.next++
	if r.budget < 0 {
		r.headSeq = r.next // nothing retained: everything below next is gone
		return seq, 0
	}
	f.Retain(1)
	r.ring = append(r.ring, ringEntry{f: f, bytes: f.Len()})
	r.ringLen += f.Len()
	// Keep at least the newest frame so an oversized event can still be
	// replayed until the next stage displaces it.
	for r.ringLen > r.budget && len(r.ring) > 1 {
		r.evictFrontLocked()
		r.evictions++
		evicted++
	}
	r.occupancy.Observe(float64(r.ringLen))
	return seq, evicted
}

func (r *relState) evictFrontLocked() {
	e := r.ring[0]
	r.ring[0] = ringEntry{}
	r.ring = r.ring[1:]
	r.ringLen -= e.bytes
	r.headSeq++
	e.f.Release()
}

// onAck releases ring entries up to the cumulative ack. An ack beyond
// anything ever staged is corrupt: it is clamped so it cannot release
// unsent entries, and reported via clamped so the caller can count it.
func (r *relState) onAck(seq uint64) (released int, clamped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq > r.next-1 {
		seq = r.next - 1
		clamped = true
	}
	for len(r.ring) > 0 && r.headSeq <= seq {
		r.evictFrontLocked()
		released++
	}
	return released, clamped
}

// resumeFrom turns a reconnect handshake's resume point into the last seq
// the new connection counts as delivered: its sender declares everything
// between that point and the first frame it writes Lost. The resume point
// acts as an ack. A resume point stamped with a different epoch belongs to
// a dead stream (publisher restart, evicted orphan, duplicate-triple fresh
// state) and says nothing about this stream's numbering: it releases
// nothing, and the connection starts from 0, as the subscriber does once
// it resets on this stream's StreamStart.
func (r *relState) resumeFrom(contig, epoch uint64) uint64 {
	if epoch != r.epoch {
		return 0
	}
	r.onAck(contig)
	r.mu.Lock()
	defer r.mu.Unlock()
	return min(contig, r.next-1)
}

// replayLocked enqueues the retained frames above last — the unacked tail
// a resuming connection still needs — and returns the seq range it
// enqueued (to == 0: none). The caller holds enqMu from the class join on,
// so every new publish queues behind the replay and the connection's seqs
// never run backwards. The ring-evicted part of the tail is left for the
// sender to declare Lost.
func (r *relState) replayLocked(pipe *sendPipeline, last uint64) (from, to uint64) {
	r.mu.Lock()
	var frames []queuedFrame
	for i, e := range r.ring {
		if seq := r.headSeq + uint64(i); seq > last {
			e.f.Retain(1)
			frames = append(frames, queuedFrame{f: e.f, seq: seq})
		}
	}
	r.mu.Unlock()
	for i, q := range frames {
		if err := pipe.enqueue(q); err != nil {
			// enqueue consumed this frame's reference; drop the rest. The
			// ring still holds everything for the next resume.
			for _, rest := range frames[i+1:] {
				rest.f.Release()
			}
			frames = frames[:i]
			break
		}
	}
	if len(frames) == 0 {
		return 0, 0
	}
	return frames[0].seq, frames[len(frames)-1].seq
}

// declareLost advances the loss-counting horizon over [from, to] and
// returns how many of its seqs no earlier declaration counted.
func (r *relState) declareLost(from, to uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if to <= r.lossCounted {
		return 0
	}
	n := to - max(from-1, r.lossCounted)
	r.lossCounted = to
	return n
}

// stats snapshots the ring for observability.
func (r *relState) stats() (staged uint64, ringFrames, ringBytes int, evictions uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - 1, len(r.ring), r.ringLen, r.evictions
}

// close releases every retained frame. The state must not be used after.
func (r *relState) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.ring) > 0 {
		r.evictFrontLocked()
	}
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
		st = newRelState(p.cfg.ReplayRingBytes)
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
		st.close()
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
		oldest.close()
	}
}

// closeRelStates releases every stream on publisher shutdown.
func (p *Publisher) closeRelStates() {
	p.relMu.Lock()
	states := p.relStates
	p.relStates = nil
	p.relMu.Unlock()
	for _, st := range states {
		st.close()
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
