package jecho

import (
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/mir/interp"
	"methodpart/internal/partition"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// relFrame builds a refcounted frame of n bytes for ring tests.
func relFrame(n int) *wire.Frame {
	return wire.NewFrame(make([]byte, n))
}

// mustUnmarshal decodes one written frame.
func mustUnmarshal(t *testing.T, data []byte) any {
	t.Helper()
	msg, err := wire.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// replayed resumes r from last on a fresh pipeline over a stub connection
// and returns the seqs the replay enqueued, releasing their references.
func replayed(r *relState, last uint64) []uint64 {
	pipe := newSendPipeline(newStubConn(false), 1024, Block, supervision{}, batchConfig{}, &channelMetrics{}, nil)
	r.enqMu.Lock()
	r.replayLocked(pipe, last)
	r.enqMu.Unlock()
	var seqs []uint64
	for len(pipe.queue) > 0 {
		q := <-pipe.queue
		seqs = append(seqs, q.seq)
		q.f.Release()
	}
	return seqs
}

func equalSeqs(a []uint64, b ...uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRelStateSequencesAndReleases(t *testing.T) {
	r := newRelState(1 << 20)
	var frames []*wire.Frame
	for i := 0; i < 5; i++ {
		f := relFrame(100)
		frames = append(frames, f)
		seq, evicted := r.stage(f)
		if want := uint64(i + 1); seq != want {
			t.Fatalf("stage %d assigned seq %d, want %d", i, seq, want)
		}
		if evicted != 0 {
			t.Fatalf("stage %d evicted %d entries under a huge budget", i, evicted)
		}
	}
	if staged, ringFrames, ringBytes, _ := r.stats(); staged != 5 || ringFrames != 5 || ringBytes != 500 {
		t.Fatalf("stats after staging = (%d, %d, %d), want (5, 5, 500)", staged, ringFrames, ringBytes)
	}
	released, clamped := r.onAck(3)
	if released != 3 || clamped {
		t.Fatalf("onAck(3) = released %d clamped %v, want 3 false", released, clamped)
	}
	if _, ringFrames, ringBytes, _ := r.stats(); ringFrames != 2 || ringBytes != 200 {
		t.Fatalf("ring after ack = (%d frames, %d bytes), want (2, 200)", ringFrames, ringBytes)
	}
	// A re-ack of an already-released position must be a no-op.
	if released, _ := r.onAck(2); released != 0 {
		t.Fatalf("stale ack released %d entries", released)
	}
	r.close()
	for i, f := range frames {
		if f.Refs() != 1 {
			t.Errorf("frame %d has %d refs after close, want the caller's 1", i, f.Refs())
		}
	}
}

func TestRelStateCorruptFarAheadAckClamped(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 4; i++ {
		r.stage(relFrame(50))
	}
	// A corrupt cumulative ack far beyond anything ever staged must release
	// at most what exists, must not derail the sequence counter — and must
	// report the clamping so the caller can count it.
	released, clamped := r.onAck(1 << 60)
	if released != 4 || !clamped {
		t.Fatalf("far-ahead ack = released %d clamped %v, want 4 true", released, clamped)
	}
	if seq, _ := r.stage(relFrame(50)); seq != 5 {
		t.Fatalf("seq after corrupt ack = %d, want 5", seq)
	}
	// An in-range ack never reports clamping.
	if _, clamped := r.onAck(5); clamped {
		t.Fatal("in-range ack reported clamping")
	}
}

// TestRelStateEvictionDeclaresLostPrefix: a resume that reaches past what
// the ring kept replays the retained tail, and the connection's sender
// declares the evicted prefix Lost in order, right before the first
// replayed frame. The publisher counts each declared seq once.
func TestRelStateEvictionDeclaresLostPrefix(t *testing.T) {
	r := newRelState(250) // holds two 100-byte frames, evicts beyond
	for i := 0; i < 5; i++ {
		r.stage(relFrame(100))
	}
	if _, ringFrames, _, evictions := r.stats(); ringFrames != 2 || evictions != 3 {
		t.Fatalf("ring = %d frames %d evictions, want 2 and 3", ringFrames, evictions)
	}
	last := r.resumeFrom(0, r.epoch)
	if last != 0 {
		t.Fatalf("resume point = %d, want 0", last)
	}
	conn := newStubConn(false)
	pipe := newSendPipeline(conn, 64, Block, supervision{}, batchConfig{}, &channelMetrics{}, nil)
	pipe.reliable, pipe.lastSeq = true, last
	var declared [][2]uint64
	pipe.lostFn = func(from, to uint64) { declared = append(declared, [2]uint64{from, to}) }
	r.enqMu.Lock()
	from, to := r.replayLocked(pipe, last)
	r.enqMu.Unlock()
	if from != 4 || to != 5 {
		t.Fatalf("replayed %d..%d, want the retained tail 4..5", from, to)
	}
	go pipe.run()
	waitFor(t, "replay written", func() bool { return len(conn.written()) == 3 })
	pipe.shutdown()
	<-pipe.done
	got := conn.written()
	if lost, ok := mustUnmarshal(t, got[0]).(*wire.Lost); !ok || lost.From != 1 || lost.To != 3 {
		t.Fatalf("first frame = %+v, want Lost 1..3", mustUnmarshal(t, got[0]))
	}
	for i, want := range []uint64{4, 5} {
		if se, ok := mustUnmarshal(t, got[i+1]).(*wire.SeqEvent); !ok || se.Seq != want {
			t.Fatalf("frame %d = %+v, want seq %d", i+1, mustUnmarshal(t, got[i+1]), want)
		}
	}
	if len(declared) != 1 || declared[0] != [2]uint64{1, 3} {
		t.Fatalf("declarations = %v, want [1 3]", declared)
	}
	// A later resume re-declaring the prefix counts only what is new.
	if n := r.declareLost(1, 3); n != 3 {
		t.Fatalf("first declaration of 1..3 counted %d, want 3", n)
	}
	if n := r.declareLost(1, 6); n != 3 {
		t.Fatalf("re-declaration of 1..6 counted %d, want the 3 new seqs", n)
	}
	if n := r.declareLost(2, 5); n != 0 {
		t.Fatalf("declaration inside the counted horizon counted %d", n)
	}
	r.close()
}

// TestSenderCutsBatchAtSkip: a queued frame whose seq jumps past the last
// one written cuts the batch there, and the Lost notice for the skipped
// seqs goes out between the two halves.
func TestSenderCutsBatchAtSkip(t *testing.T) {
	conn := newStubConn(true)
	m := &channelMetrics{}
	pipe := newSendPipeline(conn, 64, Block, supervision{}, batchConfig{Bytes: 1 << 20}, m, nil)
	pipe.reliable = true
	go pipe.run()
	for _, seq := range []uint64{1, 2, 5, 6} {
		if err := pipe.enqueue(queuedFrame{f: relFrame(10), seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	// The gate holds the sender's first write, so the frames behind it
	// queue up and leave as one collected run that spans the skip.
	conn.release()
	waitFor(t, "frames written", func() bool { return m.eventsSent.Load() == 4 })
	pipe.shutdown()
	<-pipe.done
	var seqs []uint64
	var lost []wire.Lost
	for _, data := range conn.written() {
		switch msg := mustUnmarshal(t, data).(type) {
		case *wire.SeqEvent:
			seqs = append(seqs, msg.Seq)
		case *wire.Batch:
			for _, e := range msg.Entries {
				seqs = append(seqs, mustUnmarshal(t, e).(*wire.SeqEvent).Seq)
			}
		case *wire.Lost:
			if len(seqs) != 2 {
				t.Fatalf("Lost notice after seqs %v, want it right after 1, 2", seqs)
			}
			lost = append(lost, *msg)
		}
	}
	if !equalSeqs(seqs, 1, 2, 5, 6) || len(lost) != 1 || lost[0] != (wire.Lost{From: 3, To: 4}) {
		t.Fatalf("wrote seqs %v and notices %+v, want 1 2 5 6 around Lost 3..4", seqs, lost)
	}
}

func TestRelStateOversizedFrameStaysRepairable(t *testing.T) {
	r := newRelState(64)
	f := relFrame(1000) // alone over budget: kept anyway until displaced
	r.stage(f)
	if got := replayed(r, 0); !equalSeqs(got, 1) {
		t.Fatalf("oversized frame not replayable: %v", got)
	}
	r.stage(relFrame(10)) // displaces the oversized entry
	if got := replayed(r, 0); !equalSeqs(got, 2) {
		t.Fatalf("replay after displacement = %v, want only seq 2", got)
	}
	r.close()
	if f.Refs() != 1 {
		t.Fatalf("oversized frame has %d refs after close, want 1", f.Refs())
	}
}

func TestRelStateNegativeBudgetSequencesOnly(t *testing.T) {
	r := newRelState(-1)
	f := relFrame(100)
	if seq, _ := r.stage(f); seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if f.Refs() != 1 {
		t.Fatalf("retention-disabled stage retained the frame (%d refs)", f.Refs())
	}
	if got := replayed(r, 0); len(got) != 0 {
		t.Fatalf("replay with retention disabled = %v, want nothing", got)
	}
}

func TestRelStateResume(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 6; i++ {
		r.stage(relFrame(10))
	}
	last := r.resumeFrom(4, r.epoch)
	if last != 4 {
		t.Fatalf("resume point = %d, want 4", last)
	}
	if got := replayed(r, last); !equalSeqs(got, 5, 6) {
		t.Fatalf("resume replay = %v, want seqs 5..6", got)
	}
	// The resume point acts as a cumulative ack.
	if _, ringFrames, _, _ := r.stats(); ringFrames != 2 {
		t.Fatalf("ring after resume = %d frames, want 2", ringFrames)
	}
	// Fully caught up: nothing to replay.
	if last := r.resumeFrom(6, r.epoch); last != 6 || len(replayed(r, last)) != 0 {
		t.Fatalf("caught-up resume from %d replayed something", last)
	}
	// A resume point past anything staged is clamped to the stream head.
	if last := r.resumeFrom(99, r.epoch); last != 6 {
		t.Fatalf("far-ahead resume point = %d, want 6", last)
	}
	r.close()
}

func TestRelStateResumeForeignEpochIgnored(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 3; i++ {
		r.stage(relFrame(10))
	}
	// A resume point from a different stream says nothing about this one:
	// the connection starts from 0, as the subscriber does after resetting
	// on StreamStart, and — critically — nothing is released: the foreign
	// contig must not act as an ack against this stream's numbering.
	if last := r.resumeFrom(5, r.epoch+1); last != 0 {
		t.Fatalf("foreign-epoch resume point = %d, want 0", last)
	}
	if _, ringFrames, _, _ := r.stats(); ringFrames != 3 {
		t.Fatalf("foreign-epoch resume released ring entries (%d left, want 3)", ringFrames)
	}
	// The epoch-0 "no stream adopted" sentinel is foreign to every state.
	if last := r.resumeFrom(2, 0); last != 0 {
		t.Fatalf("epoch-0 resume point = %d, want 0", last)
	}
	if got := replayed(r, 0); !equalSeqs(got, 1, 2, 3) {
		t.Fatalf("replay from 0 = %v, want the whole stream", got)
	}
	r.close()
}

func TestStreamEpochsDistinctAndNonZero(t *testing.T) {
	a, b := newRelState(0), newRelState(0)
	if a.epoch == 0 || b.epoch == 0 {
		t.Fatalf("zero stream epoch assigned (%d, %d)", a.epoch, b.epoch)
	}
	if a.epoch == b.epoch {
		t.Fatalf("two states share epoch %d", a.epoch)
	}
}

func TestRelReceiverAdmitOrderDupsAndGaps(t *testing.T) {
	r := newRelReceiver(1 << 60) // pacing off: acks tested separately
	for seq := uint64(1); seq <= 3; seq++ {
		if a, _ := r.admit(seq); a != admitNext {
			t.Fatalf("in-order admit(%d) = %v, want admitNext", seq, a)
		}
	}
	// Duplicates at or below contig drop.
	if a, _ := r.admit(2); a != admitDuplicate {
		t.Fatalf("admit of an old seq = %v, want admitDuplicate", a)
	}
	// A jump past contig+1 is a broken link; contig does not move.
	if a, _ := r.admit(6); a != admitGap {
		t.Fatalf("admit(6) after 3 = %v, want admitGap", a)
	}
	if got := r.contiguous(); got != 3 {
		t.Fatalf("contiguous after a gap = %d, want 3", got)
	}
	if a, _ := r.admit(4); a != admitNext {
		t.Fatalf("admit(4) = %v, want admitNext", a)
	}
}

func TestRelReceiverAckPacing(t *testing.T) {
	r := newRelReceiver(3)
	var acks []uint64
	for seq := uint64(1); seq <= 9; seq++ {
		if _, ack := r.admit(seq); ack != 0 {
			acks = append(acks, ack)
		}
	}
	if !equalSeqs(acks, 3, 6, 9) {
		t.Fatalf("9 deliveries at AckEvery=3 paced acks %v, want 3 6 9", acks)
	}
}

func TestRelReceiverLostAdvancesAndCounts(t *testing.T) {
	r := newRelReceiver(1 << 60)
	r.admit(1)
	r.admit(2)
	if missing, gap := r.lost(3, 6); missing != 4 || gap {
		t.Fatalf("lost(3,6) = %d missing gap %v, want 4 false", missing, gap)
	}
	if got := r.contiguous(); got != 6 {
		t.Fatalf("contiguous after loss = %d, want 6", got)
	}
	// A loss notice entirely in the past counts nothing.
	if missing, gap := r.lost(1, 4); missing != 0 || gap {
		t.Fatalf("stale loss notice = %d missing gap %v", missing, gap)
	}
	// A notice skipping seqs nobody declared is a broken link.
	if missing, gap := r.lost(9, 10); missing != 0 || !gap {
		t.Fatalf("lost(9,10) after 6 = %d missing gap %v, want 0 true", missing, gap)
	}
	// Delivery resumes cleanly after the advanced position.
	if a, _ := r.admit(7); a != admitNext {
		t.Fatalf("admit(7) after loss = %v", a)
	}
}

func TestRelReceiverStreamStartResets(t *testing.T) {
	r := newRelReceiver(1 << 60)
	if r.streamStart(7) {
		t.Fatal("first epoch adoption reported a reset")
	}
	for seq := uint64(1); seq <= 5; seq++ {
		r.admit(seq)
	}
	if r.streamStart(7) {
		t.Fatal("unchanged epoch reported a reset")
	}
	if got := r.contiguous(); got != 5 {
		t.Fatalf("unchanged epoch disturbed contig (%d, want 5)", got)
	}
	// A changed epoch means the old numbering is dead: reset everything so
	// the new stream's first events are not dropped as duplicates.
	if !r.streamStart(9) {
		t.Fatal("changed epoch did not reset the receiver")
	}
	if seq, epoch := r.resumePoint(); seq != 0 || epoch != 9 {
		t.Fatalf("resume point after reset = (%d, %d), want (0, 9)", seq, epoch)
	}
	if a, _ := r.admit(1); a != admitNext {
		t.Fatalf("fresh stream's seq 1 after reset: %v, want admitNext", a)
	}
}

func TestHandleAckClampedCounted(t *testing.T) {
	p := &Publisher{cfg: PublisherConfig{ReplayRingBytes: 1 << 20}}
	s := &subscription{rel: newRelState(1 << 20), metrics: &channelMetrics{}}
	s.rel.stage(relFrame(10))
	p.handleAck(s, 99) // beyond anything staged: clamped and counted
	if got := s.metrics.acksClamped.Load(); got != 1 {
		t.Fatalf("acksClamped after corrupt ack = %d, want 1", got)
	}
	p.handleAck(s, 1) // in range: not counted
	if got := s.metrics.acksClamped.Load(); got != 1 {
		t.Fatalf("acksClamped after valid ack = %d, want 1", got)
	}
	s.rel.close()
}

func TestAcquireRelStateResumesAcrossRetire(t *testing.T) {
	p := &Publisher{cfg: PublisherConfig{ReplayRingBytes: 1 << 20}}
	key := relKey{subscriber: "s", channel: "c", handler: "h"}
	st := p.acquireRelState(key, nil)
	st.stage(relFrame(10))

	// A duplicate live triple must get a fresh stream, not corrupt the
	// live one — and being unregistered, it is freed on detach.
	dup := p.acquireRelState(key, nil)
	if dup == st {
		t.Fatal("duplicate live subscription adopted the live stream")
	}
	if dup.registered {
		t.Fatal("duplicate stream displaced the registered one")
	}
	p.detachRelState(dup)

	// Retire then resubscribe: the same triple adopts the parked state with
	// its sequence counter intact.
	p.detachRelState(st)
	again := p.acquireRelState(key, nil)
	if again != st {
		t.Fatal("resubscribe did not adopt the detached stream")
	}
	if seq, _ := again.stage(relFrame(10)); seq != 2 {
		t.Fatalf("adopted stream staged seq %d, want 2", seq)
	}
	p.closeRelStates()
}

func TestDetachRelStateOrphanCap(t *testing.T) {
	p := &Publisher{cfg: PublisherConfig{ReplayRingBytes: 1 << 20}}
	var first *relState
	for i := 0; i <= maxOrphanRelStates; i++ {
		key := relKey{subscriber: string(rune('a' + i%26)), channel: "c", handler: string(rune('A' + i/26))}
		st := p.acquireRelState(key, nil)
		st.stage(relFrame(10))
		if i == 0 {
			first = st
		}
		p.detachRelState(st)
	}
	p.relMu.Lock()
	n := len(p.relStates)
	p.relMu.Unlock()
	if n != maxOrphanRelStates {
		t.Fatalf("%d orphans parked, cap is %d", n, maxOrphanRelStates)
	}
	// The oldest orphan was evicted and its ring released.
	if len(first.ring) != 0 {
		t.Fatal("evicted oldest orphan still retains ring frames")
	}
	p.closeRelStates()
}

// newRedeliverSubscriber builds a connection-less Subscriber around a live
// demodulator — just enough for the dead-letter redelivery path, which is
// local and never touches the wire.
func newRedeliverSubscriber(t *testing.T) *Subscriber {
	t.Helper()
	reg, _ := imaging.Builtins()
	subMsg := &wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: "redeliver",
		Handler:    imaging.HandlerName,
		Source:     imaging.HandlerSource(64),
		CostModel:  costmodel.DataSizeName,
		Natives:    []string{"displayImage"},
	}
	compiled, err := compileSubscription(subMsg)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(compiled.Classes, reg)
	return &Subscriber{
		cfg:      SubscriberConfig{Logf: func(string, ...any) {}},
		compiled: compiled,
		demod:    partition.NewDemodulator(compiled, env),
		letters:  newDeadLetterRing(8),
	}
}

func TestRedeliverDeadLetters(t *testing.T) {
	s := newRedeliverSubscriber(t)

	// One letter that demodulates cleanly now (quarantined for a since-fixed
	// transient), one wrapped in a delivery envelope, one poison forever.
	good, err := wire.Marshal(&wire.Raw{Seq: 1, Event: imaging.NewFrame(16, 16, 1)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := wire.Marshal(&wire.Raw{Seq: 2, Event: imaging.NewFrame(16, 16, 2)})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := wire.AppendSeqEvent(nil, 2, inner)
	s.quarantine(DeadLetter{Class: wire.NackRuntime, Reason: "transient", Frame: good})
	s.quarantine(DeadLetter{Class: wire.NackRuntime, Reason: "transient", Frame: wrapped})
	s.quarantine(DeadLetter{Class: wire.NackDecode, Reason: "garbage", Frame: []byte{0xff, 0xfe, 0xfd}})

	var results int
	s.cfg.OnResult = func(*partition.Result) { results++ }
	redelivered, requarantined := s.RedeliverDeadLetters()
	if redelivered != 2 || requarantined != 1 {
		t.Fatalf("RedeliverDeadLetters = (%d, %d), want (2, 1)", redelivered, requarantined)
	}
	if results != 2 {
		t.Fatalf("OnResult saw %d redelivered events, want 2", results)
	}
	if got := s.Processed(); got != 2 {
		t.Fatalf("Processed = %d, want 2", got)
	}
	m := s.Metrics()
	if m.DeadLettersRedelivered != 2 || m.DeadLettersRequarantined != 1 {
		t.Fatalf("metrics = redelivered %d requarantined %d, want 2 and 1", m.DeadLettersRedelivered, m.DeadLettersRequarantined)
	}
	// The poison letter is back in quarantine and can be retried again.
	left := s.DeadLetters()
	if len(left) != 1 || left[0].Class != wire.NackDecode {
		t.Fatalf("quarantine after redelivery = %+v, want the one poison letter", left)
	}
	if redelivered, requarantined := s.RedeliverDeadLetters(); redelivered != 0 || requarantined != 1 {
		t.Fatalf("second pass = (%d, %d), want (0, 1)", redelivered, requarantined)
	}
	// An empty ring drains to nothing.
	s.letters.drain()
	if redelivered, requarantined := s.RedeliverDeadLetters(); redelivered != 0 || requarantined != 0 {
		t.Fatalf("empty-ring pass = (%d, %d), want zeros", redelivered, requarantined)
	}
}

// TestResumeRetiresStaleSession resumes an at-least-once stream while the
// session that owns it still looks live to the publisher (its connection
// was never closed, as on a half-open link). The resume names the stream's
// epoch, so the publisher must retire the stale session and hand the
// stream over — same epoch, the unacked tail replayed — rather than start
// a fresh stream.
func TestResumeRetiresStaleSession(t *testing.T) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	hello := func(resumeSeq, resumeEpoch uint64) transport.Conn {
		t.Helper()
		conn, err := mem.Dial(pub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		data, err := wire.Marshal(&wire.Subscribe{
			Protocol:    wire.ProtocolVersion,
			Subscriber:  "resumer",
			Handler:     imaging.HandlerName,
			Source:      imaging.HandlerSource(64),
			CostModel:   costmodel.DataSizeName,
			Natives:     []string{"displayImage"},
			Reliability: wire.ReliabilityAtLeastOnce,
			ResumeSeq:   resumeSeq,
			ResumeEpoch: resumeEpoch,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteFrame(data); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	next := func(conn transport.Conn) any {
		t.Helper()
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		frame, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}

	stale := hello(0, 0)
	start, ok := next(stale).(*wire.StreamStart)
	if !ok {
		t.Fatal("first frame of an at-least-once session is not a stream start")
	}
	// The stream start precedes registration; publish once the session
	// has joined its class.
	waitFor(t, "registration", func() bool { return pub.PlanClasses() == 1 })
	const events = 5
	for i := 0; i < events; i++ {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < events; i++ {
		if _, ok := next(stale).(*wire.SeqEvent); !ok {
			t.Fatalf("frame %d of the stale session is not a sequenced event", i)
		}
	}
	staleID := pub.Subscriptions()[0].ID

	// Resume from seq 2 without ever closing the stale connection.
	fresh := hello(2, start.Epoch)
	if got, ok := next(fresh).(*wire.StreamStart); !ok || got.Epoch != start.Epoch {
		t.Fatalf("resume got stream start %+v, want the stale session's epoch %d", got, start.Epoch)
	}
	for want := uint64(3); want <= events; want++ {
		se, ok := next(fresh).(*wire.SeqEvent)
		if !ok || se.Seq != want {
			t.Fatalf("replay frame = %+v, want seq %d", se, want)
		}
	}
	infos := pub.Subscriptions()
	if len(infos) != 1 || infos[0].ID == staleID {
		t.Fatalf("subscriptions after the resume = %+v, want only the new session", infos)
	}
	_ = stale.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, err := stale.ReadFrame(); err != nil {
			break // the stale session's connection was closed by its retirement
		}
	}
}
