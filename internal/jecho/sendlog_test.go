package jecho

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"methodpart/internal/wire"
)

// logConn is a transport.Conn for driving a sender by hand: writes are
// recorded, and a write fails when fail is set. onWrite, when set, runs once
// at the start of the next write, before it fails or succeeds.
type logConn struct {
	frames  [][]byte
	fail    bool
	onWrite func()
}

func (c *logConn) WriteFrame(payload []byte) error {
	if hook := c.onWrite; hook != nil {
		c.onWrite = nil
		hook()
	}
	if c.fail {
		return errors.New("logConn: write failed")
	}
	c.frames = append(c.frames, append([]byte(nil), payload...))
	return nil
}

func (c *logConn) ReadFrame() ([]byte, error)       { return nil, errors.New("logConn: no reads") }
func (c *logConn) Close() error                     { return nil }
func (c *logConn) SetReadDeadline(time.Time) error  { return nil }
func (c *logConn) SetWriteDeadline(time.Time) error { return nil }
func (c *logConn) LocalAddr() string                { return "log:local" }
func (c *logConn) RemoteAddr() string               { return "log:remote" }

// stream is one at-least-once delivery stream stepped by hand the way the
// publisher drives it, with no goroutines: a relState, the latest session
// attached to it, and the publisher's ack and loss accounting.
type stream struct {
	pub   *Publisher
	rel   *relState
	batch int
	sub   *subscription // the latest session; detached once cut
	conn  *logConn
}

func newStream(budget, depth int, policy OverflowPolicy, batchBytes int) *stream {
	return &stream{pub: &Publisher{}, rel: newRelState(budget, depth, policy), batch: batchBytes}
}

// attach starts a session from a handshake's resume point, as handleConn
// does, and returns the range its queue replays.
func (st *stream) attach(seq, epoch uint64) (from, to uint64) {
	s := &subscription{id: "s", rel: st.rel, metrics: &channelMetrics{}}
	st.conn = &logConn{}
	s.pipe = newSendPipeline(st.conn, st.rel.log, supervision{}, batchConfig{Bytes: st.batch}, s.metrics, nil)
	s.pipe.reliable = true
	s.pipe.lostFn = func(from, to uint64) { st.pub.countLost(s, from, to) }
	st.sub = s
	return st.rel.log.attach(s.pipe, st.rel.resumePoint(seq, epoch))
}

// live reports the latest session still owns the log.
func (st *stream) live() bool { return st.sub != nil && st.rel.log.owner == st.sub.pipe }

func (st *stream) publish(f *wire.Frame) error { return st.rel.log.append(st.sub.pipe, f) }

// send runs one sender step, taking a run and writing it. A failed write
// ends the session, as the sender goroutine's exit does.
func (st *stream) send() bool { return sendStep(st.sub.pipe) }

func sendStep(p *sendPipeline) bool {
	if !p.sendEvents() {
		p.shutdown()
		return false
	}
	return true
}

func (st *stream) cut() { st.sub.pipe.shutdown() }

// sendAll sends until the queue is empty or a write fails.
func (st *stream) sendAll() {
	for st.live() && st.rel.log.queued() > 0 && st.send() {
	}
}

// delivery is one event or Lost notice a connection carried, in order: an
// event has seq > 0, a notice covers [from, to].
type delivery struct {
	seq      uint64
	from, to uint64
	payload  []byte
}

func deliveries(t testing.TB, frames [][]byte) []delivery {
	t.Helper()
	var out []delivery
	var add func(data []byte)
	add = func(data []byte) {
		msg, err := wire.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *wire.SeqEvent:
			out = append(out, delivery{seq: m.Seq, payload: m.Payload})
		case *wire.Lost:
			out = append(out, delivery{from: m.From, to: m.To})
		case *wire.Batch:
			for _, e := range m.Entries {
				add(e)
			}
		default:
			t.Fatalf("connection carried %T", msg)
		}
	}
	for _, data := range frames {
		add(data)
	}
	return out
}

// modelFrame is the frame for seq: 10 to 40 bytes, so a budget of a few
// frames evicts at varying counts, starting with seq itself.
func modelFrame(seq uint64) *wire.Frame {
	data := make([]byte, 10+int(seq*7%31))
	binary.LittleEndian.PutUint64(data, seq)
	return wire.NewFrame(data)
}

type logOp int

const (
	opAppend logOp = iota
	opSend
	opSendFail
	opSendCut // the write finds the link cut and the subscriber resumed
	opAck
	opAckFar
	opCut
	opResume
	opResumeForeign
	numLogOps
)

var logOpNames = [numLogOps]string{"append", "send", "send-fail", "send-cut", "ack", "ack-far", "cut", "resume", "resume-foreign"}

// modelSession is one session the model attached and what it saw of it.
type modelSession struct {
	s         *subscription
	conn      *logConn
	seen      int    // frames of conn already delivered to the subscriber
	refused   uint64 // DropNewest refusals
	replayEnd uint64
	replayed  uint64 // replay entries the subscriber received
}

// logModel drives one stream and a model subscriber through a sequence of
// operations and checks the log's invariants after every step.
type logModel struct {
	t        testing.TB
	st       *stream
	policy   OverflowPolicy
	budget   int
	depth    int
	ops      []string
	frames   []*wire.Frame // frames[seq-1]; the model holds one reference on each
	loose    []*wire.Frame // frames refused a position; the model's reference only
	sessions []*modelSession
	contig   uint64 // the subscriber: every seq up to here received or declared Lost
	missing  uint64 // seqs the subscriber counted lost
	foreign  bool   // a foreign-epoch resume restarted the subscriber's count
}

func newLogModel(t testing.TB, policy OverflowPolicy, budget, depth, batch int) *logModel {
	m := &logModel{t: t, st: newStream(budget, depth, policy, batch), policy: policy, budget: budget, depth: depth}
	m.resume(false)
	return m
}

func (m *logModel) fail(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("%s after [%s]: %s", m.policy, strings.Join(m.ops, " "), fmt.Sprintf(format, args...))
}

func (m *logModel) cur() *modelSession { return m.sessions[len(m.sessions)-1] }

// resume cuts a live session and attaches a new one at the subscriber's
// resume point, under the stream's epoch or a foreign one.
func (m *logModel) resume(foreign bool) {
	if m.st.live() {
		m.st.cut()
	}
	epoch := m.st.rel.epoch
	if foreign {
		// The subscriber holds another stream's numbering: it resets on
		// this stream's StreamStart.
		epoch++
		m.contig = 0
		m.foreign = true
	}
	m.st.attach(m.contig, epoch)
	m.sessions = append(m.sessions, &modelSession{s: m.st.sub, conn: m.st.conn, replayEnd: m.st.sub.pipe.replayEnd})
	if m.st.sub.pipe.lastSeq != m.contig {
		m.fail("resume from %d: the connection starts after %d", m.contig, m.st.sub.pipe.lastSeq)
	}
}

// receive delivers what the current connection carried since last time:
// in order, every seq either an event or inside a Lost notice, each once.
func (m *logModel) receive() {
	ses := m.cur()
	for _, d := range deliveries(m.t, ses.conn.frames[ses.seen:]) {
		if d.seq == 0 {
			if d.from != m.contig+1 || d.to < d.from {
				m.fail("Lost %d..%d after seq %d", d.from, d.to, m.contig)
			}
			m.missing += d.to - d.from + 1
			m.contig = d.to
			continue
		}
		if d.seq != m.contig+1 {
			m.fail("seq %d written after %d with no Lost notice between", d.seq, m.contig)
		}
		if d.seq > uint64(len(m.frames)) || !bytes.Equal(d.payload, m.frames[d.seq-1].Bytes()) {
			m.fail("seq %d carried the wrong frame", d.seq)
		}
		m.contig = d.seq
		if d.seq < ses.replayEnd {
			ses.replayed++
		}
	}
	ses.seen = len(ses.conn.frames)
}

func (m *logModel) step(op logOp) {
	m.t.Helper()
	m.ops = append(m.ops, logOpNames[op])
	st, l := m.st, m.st.rel.log
	live := st.live()
	switch op {
	case opAppend:
		if live && m.policy == Block && l.queued() >= m.depth {
			break // would wait for the sender
		}
		seq := uint64(len(m.frames) + 1)
		f := modelFrame(seq)
		f.Retain(1)
		tail := l.tail
		err := st.publish(f)
		switch {
		case !live:
			if !errors.Is(err, errRetired) {
				m.fail("append to a cut session returned %v", err)
			}
			m.loose = append(m.loose, f)
		case err != nil:
			m.fail("append: %v", err)
		case l.tail == tail:
			if m.policy != DropNewest {
				m.fail("%s refused an append", m.policy)
			}
			m.cur().refused++
			m.loose = append(m.loose, f)
		default:
			m.frames = append(m.frames, f)
			if l.tail != seq+1 {
				m.fail("append got position %d, want %d", l.tail-1, seq)
			}
			if int(l.tail-l.cursor) > m.depth {
				m.fail("queue holds %d after an append, depth %d", l.tail-l.cursor, m.depth)
			}
		}
	case opSend, opSendFail, opSendCut:
		if !live {
			break
		}
		old := m.cur()
		old.conn.fail = op != opSend
		if op == opSendCut {
			// The subscriber closed the link and resumed while this sender
			// took its run; the run's write then fails on the dead link.
			old.conn.onWrite = func() {
				m.receive()
				m.resume(false)
			}
		}
		sendStep(old.s.pipe)
		old.conn.fail, old.conn.onWrite = false, nil
		if old == m.cur() {
			m.receive()
		} else if !st.live() {
			m.fail("the old session's sender detached the resumed one")
		}
	case opAck:
		if live {
			m.st.pub.handleAck(st.sub, m.contig)
		}
	case opAckFar:
		if live {
			before := st.sub.metrics.acksClamped.Load()
			m.st.pub.handleAck(st.sub, 1<<40)
			if st.sub.metrics.acksClamped.Load() != before+1 {
				m.fail("a far-ahead ack was not clamped")
			}
		}
	case opCut:
		if live {
			st.cut()
		}
	case opResume, opResumeForeign:
		m.resume(op == opResumeForeign)
	}
	m.check()
}

func (m *logModel) check() {
	m.t.Helper()
	l := m.st.rel.log
	if l.horizon < 1 || l.horizon > l.cursor || l.cursor > l.tail || l.tail != uint64(len(m.frames))+1 {
		m.fail("positions horizon %d cursor %d tail %d with %d appended", l.horizon, l.cursor, l.tail, len(m.frames))
	}
	retained := 0
	for i, f := range m.frames {
		seq, want := uint64(i+1), int32(1)
		if seq >= l.horizon {
			want = 2
		}
		if seq >= l.horizon && seq < l.cursor {
			retained += f.Len()
		}
		if f.Refs() != want {
			m.fail("seq %d holds %d references, want %d", seq, f.Refs(), want)
		}
	}
	for _, f := range m.loose {
		if f.Refs() != 1 {
			m.fail("a refused frame holds %d references, want 1", f.Refs())
		}
	}
	if retained != l.retained {
		m.fail("log counts %d retained bytes, entries hold %d", l.retained, retained)
	}
	if l.retained > m.budget && l.cursor-l.horizon > 1 {
		m.fail("%d bytes in %d entries retained over a budget of %d", l.retained, l.cursor-l.horizon, m.budget)
	}
	var lost uint64
	for _, ses := range m.sessions {
		mm := ses.s.metrics.snapshot()
		var queued uint64
		if l.owner == ses.s.pipe {
			queued = l.tail - l.cursor
		}
		if mm.Enqueued != mm.EventsSent+mm.Dropped-ses.refused+queued {
			m.fail("session %d: enqueued %d != sent %d + dropped %d - refused %d + queued %d",
				len(m.sessions), mm.Enqueued, mm.EventsSent, mm.Dropped, ses.refused, queued)
		}
		if mm.Replayed != ses.replayed {
			m.fail("session counts %d replayed, the subscriber received %d", mm.Replayed, ses.replayed)
		}
		lost += mm.DataLoss
	}
	if !m.foreign && lost != m.missing {
		m.fail("publisher counts %d lost, the subscriber %d", lost, m.missing)
	}
}

// finish resumes the stream if cut, drains it, and sends one last event,
// which a skip before it must precede with its Lost notice: every seq
// appended is then received or declared Lost. Closing the log then leaves
// each frame with the model's reference only: the log released each
// exactly once.
func (m *logModel) finish() {
	m.t.Helper()
	m.ops = append(m.ops, "finish")
	if !m.st.live() {
		m.resume(false)
	}
	m.st.sendAll()
	m.receive()
	m.step(opAppend)
	m.st.sendAll()
	m.receive()
	m.check()
	if m.contig != uint64(len(m.frames)) {
		m.fail("drained stream reaches seq %d of %d", m.contig, len(m.frames))
	}
	m.st.pub.handleAck(m.st.sub, m.contig)
	if l := m.st.rel.log; l.horizon != l.tail {
		m.fail("a full ack left entries %d..%d", l.horizon, l.tail-1)
	}
	m.st.cut()
	m.st.rel.log.close()
	m.check()
	for _, f := range append(m.frames, m.loose...) {
		f.Release()
	}
}

// TestSendLogModel checks the outbound log the way TestMembershipInterleavings
// checks the class index: no goroutines and no clock, every short sequence
// of operations tried exhaustively, plus seeded long ones. Each policy runs
// with and without batching on a log whose budget holds a few frames.
// After every step: each connection writes seqs in order and declares every
// gap Lost exactly once, the publisher's loss count equals the subscriber's,
// Enqueued == EventsSent + Dropped (less DropNewest refusals, which take no
// place in the queue) for every session, retained bytes stay within the
// budget apart from the newest entry, and each frame holds exactly the
// references of the log and the model.
func TestSendLogModel(t *testing.T) {
	const budget, depth = 50, 2
	prefix := []logOp{opAppend, opAppend, opSend, opAppend}
	length := 4
	if raceDetectorEnabled || testing.Short() {
		length = 3
	}
	runs := 0
	for _, policy := range []OverflowPolicy{Block, DropNewest, DropOldest} {
		for _, batch := range []int{0, 40} {
			seq := make([]logOp, length)
			var rec func(i int)
			rec = func(i int) {
				if i == length {
					runs++
					m := newLogModel(t, policy, budget, depth, batch)
					for _, op := range prefix {
						m.step(op)
					}
					for _, op := range seq {
						m.step(op)
					}
					m.finish()
					return
				}
				for op := logOp(0); op < numLogOps; op++ {
					seq[i] = op
					rec(i + 1)
				}
			}
			rec(0)
			for seed := int64(1); seed <= 100; seed++ {
				runs++
				rng := rand.New(rand.NewSource(seed))
				m := newLogModel(t, policy, budget, depth, batch)
				for i := 0; i < 80; i++ {
					// Appends and sends dominate, as in a live stream.
					op := logOp(rng.Intn(int(numLogOps) + 4))
					if op >= numLogOps {
						op = logOp(int(op-numLogOps) % 2)
					}
					m.step(op)
				}
				m.finish()
			}
		}
	}
	t.Logf("%d sequences", runs)
}
