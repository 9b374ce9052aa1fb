package jecho

import (
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
	// subscriber's cumulative ack releases them, repairs gaps by
	// retransmission, and resumes mid-stream across reconnects. Events the
	// ring evicted before repair are declared Lost and counted as DataLoss —
	// loss is loud, never silent. Duplicates from replay are absorbed by
	// subscriber-side dedup before the handler sees them.
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

// replaySet is the outcome of a replay request: ring frames to re-send
// (each carrying one retained reference for the caller) and, when the ring
// evicted past the requested range, the unrecoverable prefix to declare
// Lost.
type replaySet struct {
	frames []queuedFrame
	// lostFrom/lostTo is the evicted prefix, inclusive; lostTo == 0 means
	// nothing was lost.
	lostFrom, lostTo uint64
	// lostNew counts the seqs of [lostFrom, lostTo] no earlier replay
	// declared lost: the share the publisher adds to DataLoss. The Lost
	// notice still carries the whole range, which a resume may need again.
	lostNew uint64
}

// relState is the publisher-side half of one at-least-once stream: the
// per-subscription delivery sequence counter plus the byte-budgeted ring of
// sent-but-unacked frames. It outlives the subscription that created it —
// retire detaches it into the publisher's orphan set so a resubscribe can
// adopt it and resume.
type relState struct {
	budget int // ring byte budget; < 0 disables retention (sequencing only)

	// epoch identifies this state's sequence numbering in the StreamStart
	// handshake. Immutable after newRelState.
	epoch uint64

	// enqMu serializes stage+enqueue across concurrently publishing
	// goroutines so pipeline queue order matches sequence order.
	enqMu sync.Mutex

	mu      sync.Mutex
	next    uint64 // next sequence number to assign; first event gets 1
	headSeq uint64 // sequence of ring[0]; ring covers [headSeq, next)
	ring    []ringEntry
	ringLen int // bytes currently retained

	// Idle-replay heuristic: a subscriber missing the *trailing* frames of
	// a burst never sees a higher seq, so it cannot detect the gap — but it
	// keeps acking the same contiguous seq (standalone and on heartbeats).
	// Repeated identical acks with nothing staged in between while unacked
	// frames exist mean the tail may need replay. A merely *stalled*
	// handler (frames queued or in flight, not lost) produces the same
	// signal, so successive replays for one stalled ack back off
	// exponentially — the first fires after 2 identical acks, then 4, 8, …
	// capped at 64 — bounding the duplicated bytes logarithmically instead
	// of re-sending the whole unacked tail every other heartbeat.
	lastAck     uint64
	stagedSince bool
	ackRepeats  uint64 // identical idle acks since the last reset/replay
	idleBackoff uint   // doublings applied to the next replay threshold

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
	// mu): repeated replays re-declare the same evicted prefix, and only
	// seqs beyond this horizon are counted again.
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
		next: 1, headSeq: 1, lastAck: ^uint64(0),
		occupancy: obsv.NewHistogram(obsv.SizeBuckets),
	}
}

// stageAndEnqueue assigns the next delivery sequence to f, retains it in
// the replay ring, and hands it to the pipeline. It consumes the caller's
// frame reference exactly like enqueue does (the ring holds its own). The
// enqMu critical section spans both steps so the queue drains in sequence
// order. An errRetired enqueue still leaves the frame staged: the ring is
// precisely what survives for the resubscribe to replay.
func (r *relState) stageAndEnqueue(pipe *sendPipeline, f *wire.Frame, m *channelMetrics) error {
	r.enqMu.Lock()
	seq, evicted := r.stage(f)
	if evicted > 0 {
		m.ringEvictions.Add(evicted)
	}
	err := pipe.enqueue(queuedFrame{f: f, seq: seq})
	r.enqMu.Unlock()
	return err
}

// stage assigns a sequence number and retains f in the ring, evicting the
// oldest entries when the byte budget overflows.
func (r *relState) stage(f *wire.Frame) (seq uint64, evicted uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seq = r.next
	r.next++
	r.stagedSince = true
	if r.budget < 0 {
		r.headSeq = r.next // nothing retained: everything below next is gone
		return seq, 0
	}
	f.Retain(1)
	r.ring = append(r.ring, ringEntry{f: f, bytes: f.Len()})
	r.ringLen += f.Len()
	// Keep at least the newest frame so an oversized event is still
	// repairable until the next stage displaces it.
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

// onAck releases ring entries up to the cumulative ack and decides whether
// the idle-replay heuristic fires. An ack beyond anything ever staged is
// corrupt: it is clamped so it cannot release unsent entries or corrupt
// the counters, and reported via the clamped return so callers can count
// it. Replays for a repeating idle ack back off exponentially (see the
// field comment): ack progress or fresh staging resets the backoff.
func (r *relState) onAck(seq uint64) (released int, clamped bool, rep replaySet, replay bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ack := seq
	if ack > r.next-1 {
		ack = r.next - 1
		clamped = true
	}
	released = r.releaseToLocked(ack)
	switch {
	case ack != r.lastAck || ack >= r.next-1:
		// Progress (or nothing outstanding): record and disarm.
		r.lastAck = ack
		r.ackRepeats, r.idleBackoff = 0, 0
	case r.stagedSince:
		// New frames went out since the last ack; the subscriber has not
		// had a chance to ack them yet — not an idle signal.
		r.ackRepeats = 0
	default:
		r.ackRepeats++
		if r.ackRepeats >= 1<<min(r.idleBackoff, 6) {
			rep = r.buildReplayLocked(ack+1, r.next-1)
			replay = true
			r.ackRepeats = 0
			if r.idleBackoff < 6 {
				r.idleBackoff++
			}
		}
	}
	r.stagedSince = false
	return released, clamped, rep, replay
}

func (r *relState) releaseToLocked(seq uint64) int {
	n := 0
	for len(r.ring) > 0 && r.headSeq <= seq {
		r.evictFrontLocked()
		n++
	}
	return n
}

// resume builds the replay for a reconnect: everything after the
// subscriber's last contiguous seq, with the evicted prefix declared Lost.
// A resume point stamped with a different epoch belongs to a dead stream
// (publisher restart, evicted orphan, duplicate-triple fresh state) and
// says nothing about *this* stream's numbering — it must neither release
// ring entries nor suppress replay. The subscriber resets on this stream's
// StreamStart and re-acks from zero, so a fresh state replays nothing here
// and a populated foreign state replays via normal gap repair after the
// reset.
func (r *relState) resume(contig, epoch uint64) replaySet {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch != r.epoch {
		return replaySet{}
	}
	// The resume point acts as an ack: the subscriber durably has
	// everything up to it.
	r.releaseToLocked(contig)
	if contig >= r.next-1 {
		return replaySet{}
	}
	return r.buildReplayLocked(contig+1, r.next-1)
}

// replayRange builds the replay for an explicit retransmit request,
// clamped to what was ever staged.
func (r *relState) replayRange(from, to uint64) replaySet {
	r.mu.Lock()
	defer r.mu.Unlock()
	if from == 0 {
		from = 1
	}
	if to > r.next-1 {
		to = r.next - 1
	}
	if from > to {
		return replaySet{}
	}
	return r.buildReplayLocked(from, to)
}

// buildReplayLocked assembles [from, to]: the sub-range the ring evicted
// becomes the lost prefix, the rest is retained frames (one extra
// reference each, owned by the caller). It advances the loss-counting
// horizon past the lost prefix.
func (r *relState) buildReplayLocked(from, to uint64) replaySet {
	var rep replaySet
	if from < r.headSeq {
		rep.lostFrom = from
		hi := r.headSeq - 1
		if hi > to {
			hi = to
		}
		rep.lostTo = hi
		if hi > r.lossCounted {
			rep.lostNew = hi - max(from-1, r.lossCounted)
			r.lossCounted = hi
		}
		from = r.headSeq
	}
	for seq := from; seq <= to; seq++ {
		i := int(seq - r.headSeq)
		if i < 0 || i >= len(r.ring) {
			break
		}
		e := r.ring[i]
		e.f.Retain(1)
		rep.frames = append(rep.frames, queuedFrame{f: e.f, seq: seq})
	}
	return rep
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
// sequence numbers unwrapped from SeqEvent envelopes.
type relReceiver struct {
	mu       sync.Mutex
	epoch    uint64              // adopted stream epoch; 0 = none yet
	contig   uint64              // every seq <= contig has been received
	ahead    map[uint64]struct{} // received seqs above a gap
	reqHigh  uint64              // highest seq already covered by a retransmit request
	sinceAck uint64
	ackEvery uint64

	// Gap-retry pacing: reqHigh alone is a monotonic high-water mark, so a
	// retransmit request whose replay was dropped (ring overflow under
	// DropOldest, a swallowed write error) would never be re-issued on the
	// same connection. The heartbeat loop calls retryGap every tick; when
	// the gap persists with no contig progress across enough consecutive
	// ticks the whole outstanding range is re-requested, with the
	// threshold doubling per retry (2, 4, 8, … capped at 64 ticks) so a
	// genuinely slow replay is not buried under duplicate requests.
	hbContig   uint64 // contig at the last heartbeat tick
	gapStalls  uint64 // consecutive ticks with a gap and no progress
	gapBackoff uint   // doublings applied to the next retry threshold
}

func newRelReceiver(ackEvery uint64) *relReceiver {
	if ackEvery == 0 {
		ackEvery = DefaultAckEvery
	}
	return &relReceiver{ahead: make(map[uint64]struct{}), ackEvery: ackEvery}
}

// admit classifies one received seq. deliver reports whether the event is
// new (false = duplicate: drop it and ack immediately so a replaying
// publisher converges). gapFrom/gapTo, when gapTo != 0, is a fresh gap to
// request retransmission for. ackDue reports that the standalone-ack pace
// elapsed; ackSeq is the current contiguous seq for either ack.
func (r *relReceiver) admit(seq uint64) (deliver bool, gapFrom, gapTo uint64, ackDue bool, ackSeq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if seq <= r.contig {
		return false, 0, 0, false, r.contig
	}
	if _, dup := r.ahead[seq]; dup {
		return false, 0, 0, false, r.contig
	}
	if seq == r.contig+1 {
		r.contig++
		for {
			if _, ok := r.ahead[r.contig+1]; !ok {
				break
			}
			delete(r.ahead, r.contig+1)
			r.contig++
		}
	} else {
		r.ahead[seq] = struct{}{}
		// Request only the part of the gap no earlier request covered.
		if seq-1 > r.reqHigh {
			gapFrom = r.contig + 1
			if r.reqHigh+1 > gapFrom {
				gapFrom = r.reqHigh + 1
			}
			gapTo = seq - 1
			r.reqHigh = gapTo
			// Trim already-received seqs off the range's edges — the
			// request is one contiguous span, so interior holes stay, but
			// edge trims keep a common case (one missing seq under a pile
			// of ahead arrivals) from re-requesting received events.
			for gapFrom <= gapTo {
				if _, ok := r.ahead[gapFrom]; !ok {
					break
				}
				gapFrom++
			}
			for gapTo >= gapFrom {
				if _, ok := r.ahead[gapTo]; !ok {
					break
				}
				gapTo--
			}
			if gapFrom > gapTo {
				gapFrom, gapTo = 0, 0
			}
		}
	}
	r.sinceAck++
	if r.sinceAck >= r.ackEvery {
		r.sinceAck = 0
		ackDue = true
	}
	return true, gapFrom, gapTo, ackDue, r.contig
}

// lost processes a Lost notice: every seq in [from, to] never received
// counts as data loss, and the receiver advances past the range so
// delivery resumes. Returns the loss count and the new contiguous seq to
// ack immediately (the publisher is waiting on it).
func (r *relReceiver) lost(from, to uint64) (missing uint64, ackSeq uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for seq := from; seq <= to && seq != 0; seq++ {
		if seq <= r.contig {
			continue
		}
		if _, ok := r.ahead[seq]; ok {
			delete(r.ahead, seq)
			continue
		}
		missing++
	}
	if to > r.contig {
		r.contig = to
		for {
			if _, ok := r.ahead[r.contig+1]; !ok {
				break
			}
			delete(r.ahead, r.contig+1)
			r.contig++
		}
	}
	if r.reqHigh < r.contig {
		r.reqHigh = r.contig
	}
	return missing, r.contig
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
		r.ahead = make(map[uint64]struct{})
		r.reqHigh = 0
		r.sinceAck = 0
		r.hbContig, r.gapStalls, r.gapBackoff = 0, 0, 0
	}
	return reset
}

// retryGap is the heartbeat-paced re-request of a stuck gap. Each tick it
// observes whether a gap exists (ahead non-empty) and whether contig moved
// since the previous tick; after enough stalled ticks (doubling per retry,
// see the field comment) it returns the full outstanding range to
// re-request, edge-trimmed against already-received seqs. A zero return
// means nothing to re-request this tick.
func (r *relReceiver) retryGap() (from, to uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ahead) == 0 || r.contig > r.hbContig {
		r.hbContig = r.contig
		r.gapStalls, r.gapBackoff = 0, 0
		return 0, 0
	}
	r.gapStalls++
	if r.gapStalls < 2<<min(r.gapBackoff, 5) {
		return 0, 0
	}
	r.gapStalls = 0
	if r.gapBackoff < 5 {
		r.gapBackoff++
	}
	var high uint64
	for seq := range r.ahead {
		if seq > high {
			high = seq
		}
	}
	// ahead is non-empty and contig+1 is never in it (it would have been
	// merged), so [contig+1, high-1] is a valid range containing at least
	// the first missing seq.
	from, to = r.contig+1, high-1
	for to >= from {
		if _, ok := r.ahead[to]; !ok {
			break
		}
		to--
	}
	if r.reqHigh < to {
		r.reqHigh = to
	}
	return from, to
}

// resetRequests forgets outstanding retransmit requests and retry pacing.
// Called on reconnect: the old connection's requests died with it, so gaps
// observed after resuming must be re-requested.
func (r *relReceiver) resetRequests() {
	r.mu.Lock()
	r.reqHigh = r.contig
	r.hbContig = r.contig
	r.gapStalls, r.gapBackoff = 0, 0
	r.mu.Unlock()
}
