package jecho

import (
	"sync"

	"methodpart/internal/obsv"
	"methodpart/internal/wire"
)

// sendLog is one subscription's outbound log: a growable ring of
// refcounted event frames indexed by position. On a reliable stream the
// position is the delivery seq; a best-effort stream numbers its frames
// the same way and never looks at the numbers. Three positions cut it:
//
//	horizon <= cursor <= tail
//	[horizon, cursor)  sent (or skipped by DropOldest), retained until acked
//	[cursor, tail)     the send queue, bounded by depth when appending
//
// Every publish appends through append and the subscription's sender takes
// runs from the cursor, both under mu. A log that retains nothing
// (best-effort, or retention disabled) hands its reference to the sender
// with each taken entry, so horizon == cursor. A retaining log keeps its
// reference until an ack or the byte budget releases it, and the sender
// takes one of its own: a sender outliving its session (retire does not
// wait for it) never writes a released frame.
//
// A reliable log outlives its session. A resume attaches the next
// session's sender and moves the cursor back to the resume point + 1, so
// the unacked tail is that session's queue and is written, in order,
// ahead of every later append.
type sendLog struct {
	mu  sync.Mutex
	buf []*wire.Frame // position pos lives at buf[pos&(len(buf)-1)]

	horizon, cursor, tail uint64 // the first event gets position 1

	depth  int
	policy OverflowPolicy
	// budget bounds the payload bytes retained in [horizon, cursor);
	// < 0 retains nothing.
	budget   int
	retained int

	// owner is the attached session's sender (nil while detached): only it
	// appends and takes. space wakes Block appenders when the cursor moves
	// or the owner changes.
	owner *sendPipeline
	space sync.Cond

	// lossCounted is the highest seq already counted as lost: a resume after
	// a second cut can declare part of a range again, and only seqs beyond
	// this horizon count again.
	lossCounted uint64
	// occupancy samples the retained bytes after every send-side advance,
	// so the exported histogram shows how hard the budget is working. Set
	// by newRelState: only reliable logs retain.
	occupancy *obsv.Histogram
}

func newSendLog(depth int, policy OverflowPolicy, budget int) *sendLog {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	n := 8
	for n < depth {
		n <<= 1
	}
	l := &sendLog{
		buf:     make([]*wire.Frame, n),
		horizon: 1, cursor: 1, tail: 1,
		depth: depth, policy: policy, budget: budget,
	}
	l.space.L = &l.mu
	return l
}

func (l *sendLog) slot(pos uint64) **wire.Frame { return &l.buf[pos&uint64(len(l.buf)-1)] }

// append admits f at the tail for p's session under the overflow policy,
// consuming the caller's reference on every path. A full queue makes Block
// wait for the cursor to move, DropNewest refuse f before it gets a
// position, and DropOldest move the cursor past the oldest queued entry
// (the sender then declares that seq Lost). A nil return means f joined the
// log or was refused by policy; errRetired means p's session is over.
func (l *sendLog) append(p *sendPipeline, f *wire.Frame) error {
	l.mu.Lock()
	for l.owner == p && int(l.tail-l.cursor) >= l.depth {
		switch l.policy {
		case DropNewest:
			l.mu.Unlock()
			p.metrics.dropped.Add(1)
			f.Release()
			return nil
		case DropOldest:
			if old := l.passLocked(p); l.budget < 0 {
				old.Release()
			}
			p.metrics.dropped.Add(1)
		default:
			l.space.Wait()
		}
	}
	if l.owner != p {
		l.mu.Unlock()
		f.Release()
		return errRetired
	}
	if int(l.tail-l.horizon) == len(l.buf) {
		l.growLocked()
	}
	*l.slot(l.tail) = f
	l.tail++
	p.metrics.enqueued.Add(1)
	p.metrics.noteDepth(int(l.tail - l.cursor))
	l.mu.Unlock()
	p.signal()
	return nil
}

func (l *sendLog) growLocked() {
	buf := make([]*wire.Frame, 2*len(l.buf))
	for pos := l.horizon; pos < l.tail; pos++ {
		buf[pos&uint64(len(buf)-1)] = *l.slot(pos)
	}
	l.buf = buf
}

// take moves a run of queued entries from the cursor into p.frames and
// returns the position of the first: one entry, and more while the run is
// under maxBytes (the first always fits). more reports entries left behind.
// A detached sender takes nothing.
func (l *sendLog) take(p *sendPipeline, maxBytes int) (first uint64, more bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != p {
		return 0, false
	}
	first = l.cursor
	total := 0
	for l.cursor < l.tail && (len(p.frames) == 0 || total < maxBytes) {
		f := l.passLocked(p)
		if l.budget >= 0 {
			f.Retain(1)
		}
		p.frames = append(p.frames, f)
		total += f.Len()
	}
	l.space.Broadcast()
	return first, l.cursor < l.tail
}

// passLocked moves the cursor past one queued entry and returns its frame.
// A retaining log keeps the entry as unacked and evicts from the horizon to
// hold the byte budget, never the entry just passed; a log that retains
// nothing forgets it, and its reference goes to the caller.
func (l *sendLog) passLocked(p *sendPipeline) *wire.Frame {
	s := l.slot(l.cursor)
	f := *s
	l.cursor++
	if l.budget < 0 {
		*s = nil
		l.horizon = l.cursor
		return f
	}
	l.retained += f.Len()
	for l.retained > l.budget && l.cursor-l.horizon > 1 {
		l.releaseFrontLocked()
		p.metrics.ringEvictions.Add(1)
	}
	l.occupancy.Observe(float64(l.retained))
	return f
}

func (l *sendLog) releaseFrontLocked() {
	s := l.slot(l.horizon)
	f := *s
	*s = nil
	if l.horizon < l.cursor {
		l.retained -= f.Len()
	}
	l.horizon++
	f.Release()
}

// ack releases the retained entries up to seq, the subscriber's cumulative
// ack. An ack at or beyond the cursor claims a frame never sent: it is
// clamped so it cannot release queued entries, and reported.
func (l *sendLog) ack(seq uint64) (clamped bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.cursor {
		seq, clamped = l.cursor-1, true
	}
	for l.horizon <= seq {
		l.releaseFrontLocked()
	}
	return clamped
}

// attach makes p the log's sender, resuming after last, the seq p's
// connection counts as delivered (0 on a fresh stream; clamped to the
// tail). Entries up to last count as acked and are released, and the
// cursor moves to the oldest entry kept above last: what p's session
// replays is simply its queue. p's sender declares Lost whatever lies
// between last and the cursor, frames the budget evicted. attach returns
// the replayed range (to == 0: none).
func (l *sendLog) attach(p *sendPipeline, last uint64) (from, to uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	last = min(last, l.tail-1)
	for l.horizon <= last {
		l.releaseFrontLocked()
	}
	l.cursor, l.retained = l.horizon, 0
	l.owner = p
	p.lastSeq, p.replayEnd = last, l.tail
	if l.cursor == l.tail {
		return 0, 0
	}
	p.metrics.enqueued.Add(l.tail - l.cursor)
	p.metrics.noteDepth(int(l.tail - l.cursor))
	p.signal()
	return l.cursor, l.tail - 1
}

// detach ends p's session on the log: Block appenders wake to errRetired,
// the entries still queued count as dropped for p (they never left on its
// connection), and a log that retains nothing releases them. A reliable
// log keeps them for the next session's replay.
func (l *sendLog) detach(p *sendPipeline) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.owner != p {
		return
	}
	l.owner = nil
	p.metrics.dropped.Add(l.tail - l.cursor)
	if l.budget < 0 {
		l.releaseAllLocked()
	}
	l.space.Broadcast()
}

func (l *sendLog) releaseAllLocked() {
	for l.horizon < l.tail {
		l.releaseFrontLocked()
	}
	l.cursor = l.tail
}

// close releases every entry. The log must not be used after.
func (l *sendLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.releaseAllLocked()
}

// declareLost advances the loss-counting horizon over [from, to] and
// returns how many of its seqs no earlier declaration counted.
func (l *sendLog) declareLost(from, to uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to <= l.lossCounted {
		return 0
	}
	n := to - max(from-1, l.lossCounted)
	l.lossCounted = to
	return n
}

// queued returns the send queue's length.
func (l *sendLog) queued() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.tail - l.cursor)
}

// queuedBytes sums the queued payload, stopping once it reaches limit.
func (l *sendLog) queuedBytes(limit int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	total := 0
	for pos := l.cursor; pos < l.tail && total < limit; pos++ {
		total += (*l.slot(pos)).Len()
	}
	return total
}

// stats snapshots the log for observability: the highest position
// assigned, and the entries and payload bytes retained unacked.
func (l *sendLog) stats() (staged uint64, retainedFrames, retainedBytes int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail - 1, int(l.cursor - l.horizon), l.retained
}
