package jecho

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/mir/interp"
	"methodpart/internal/obsv"
	"methodpart/internal/partition"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// relFrame builds a refcounted frame of n bytes for log tests.
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

// eventSeqs lists the seqs of the events in ds, skipping Lost notices.
func eventSeqs(ds []delivery) []uint64 {
	var seqs []uint64
	for _, d := range ds {
		if d.seq != 0 {
			seqs = append(seqs, d.seq)
		}
	}
	return seqs
}

func TestRelStateSequencesAndReleases(t *testing.T) {
	st := newStream(1<<20, 64, Block, 0)
	st.attach(0, 0)
	var frames []*wire.Frame
	for i := 0; i < 5; i++ {
		f := relFrame(100)
		f.Retain(1) // the test's own reference
		frames = append(frames, f)
		if err := st.publish(f); err != nil {
			t.Fatal(err)
		}
	}
	st.sendAll()
	if got := eventSeqs(deliveries(t, st.conn.frames)); !equalSeqs(got, 1, 2, 3, 4, 5) {
		t.Fatalf("events carried seqs %v, want 1..5", got)
	}
	if staged, frames, bytes := st.rel.log.stats(); staged != 5 || frames != 5 || bytes != 500 {
		t.Fatalf("stats after sending = (%d, %d, %d), want (5, 5, 500)", staged, frames, bytes)
	}
	if clamped := st.rel.log.ack(3); clamped {
		t.Fatal("ack(3) of sent frames reported clamping")
	}
	if _, frames, bytes := st.rel.log.stats(); frames != 2 || bytes != 200 {
		t.Fatalf("log after ack = (%d frames, %d bytes), want (2, 200)", frames, bytes)
	}
	// A re-ack of an already-released position must be a no-op.
	st.rel.log.ack(2)
	if _, frames, _ := st.rel.log.stats(); frames != 2 {
		t.Fatalf("stale ack left %d frames, want 2", frames)
	}
	st.cut()
	st.rel.log.close()
	for i, f := range frames {
		if f.Refs() != 1 {
			t.Errorf("frame %d has %d refs after close, want the test's 1", i, f.Refs())
		}
	}
}

func TestRelStateCorruptFarAheadAckClamped(t *testing.T) {
	st := newStream(1<<20, 64, Block, 0)
	st.attach(0, 0)
	for i := 0; i < 4; i++ {
		if err := st.publish(relFrame(50)); err != nil {
			t.Fatal(err)
		}
	}
	st.sendAll()
	// A corrupt cumulative ack far beyond anything ever sent must release
	// at most what exists, must not derail the sequence counter — and must
	// report the clamping so the caller can count it.
	if clamped := st.rel.log.ack(1 << 60); !clamped {
		t.Fatal("far-ahead ack not reported clamped")
	}
	if _, frames, _ := st.rel.log.stats(); frames != 0 {
		t.Fatalf("far-ahead ack left %d of 4 sent frames", frames)
	}
	if err := st.publish(relFrame(50)); err != nil {
		t.Fatal(err)
	}
	if staged, _, _ := st.rel.log.stats(); staged != 5 {
		t.Fatalf("seq after corrupt ack = %d, want 5", staged)
	}
	// An ack of a queued, unsent frame is as corrupt: it releases nothing.
	if clamped := st.rel.log.ack(5); !clamped || st.rel.log.queued() != 1 {
		t.Fatalf("ack of an unsent frame: clamped %v, %d queued, want true and 1", clamped, st.rel.log.queued())
	}
	st.sendAll()
	// An in-range ack never reports clamping.
	if clamped := st.rel.log.ack(5); clamped {
		t.Fatal("in-range ack reported clamping")
	}
	st.cut()
	st.rel.log.close()
}

// TestRelStateEvictionDeclaresLostPrefix: a resume that reaches past what
// the log kept replays the retained tail, and the connection's sender
// declares the evicted prefix Lost in order, right before the first
// replayed frame. The publisher counts each declared seq once.
func TestRelStateEvictionDeclaresLostPrefix(t *testing.T) {
	st := newStream(250, 64, Block, 0) // keeps two sent 100-byte frames
	st.attach(0, 0)
	for i := 0; i < 5; i++ {
		if err := st.publish(relFrame(100)); err != nil {
			t.Fatal(err)
		}
	}
	st.sendAll()
	if _, frames, _ := st.rel.log.stats(); frames != 2 || st.sub.metrics.ringEvictions.Load() != 3 {
		t.Fatalf("log = %d frames %d evictions, want 2 and 3", frames, st.sub.metrics.ringEvictions.Load())
	}
	st.cut()
	from, to := st.attach(0, st.rel.epoch)
	if from != 4 || to != 5 || st.sub.pipe.lastSeq != 0 {
		t.Fatalf("resume from 0 replays %d..%d after %d, want the retained tail 4..5 after 0", from, to, st.sub.pipe.lastSeq)
	}
	st.sendAll()
	got := deliveries(t, st.conn.frames)
	want := []delivery{{from: 1, to: 3}, {seq: 4}, {seq: 5}}
	if len(got) != len(want) {
		t.Fatalf("resumed connection carried %+v, want Lost 1..3 then seqs 4, 5", got)
	}
	for i := range want {
		if got[i].seq != want[i].seq || got[i].from != want[i].from || got[i].to != want[i].to {
			t.Fatalf("resumed connection carried %+v, want Lost 1..3 then seqs 4, 5", got)
		}
	}
	if m := st.sub.metrics.snapshot(); m.DataLoss != 3 || m.Replayed != 2 {
		t.Fatalf("DataLoss %d Replayed %d, want 3 and 2", m.DataLoss, m.Replayed)
	}
	// A later resume re-declaring the prefix counts only what is new.
	if n := st.rel.log.declareLost(1, 6); n != 3 {
		t.Fatalf("re-declaration of 1..6 counted %d, want the 3 new seqs", n)
	}
	if n := st.rel.log.declareLost(2, 5); n != 0 {
		t.Fatalf("declaration inside the counted horizon counted %d", n)
	}
	st.cut()
	st.rel.log.close()
}

// TestSenderCutsBatchAtSkip: when DropOldest moves the cursor past queued
// seqs, the next run starts after the skip, and the Lost notice for the
// skipped seqs goes out between the run before it and the run after.
func TestSenderCutsBatchAtSkip(t *testing.T) {
	st := newStream(1<<20, 2, DropOldest, 1<<20)
	st.attach(0, 0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			if err := st.publish(relFrame(10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish(2) // 1, 2
	st.send()
	publish(4) // 3, 4, then 5 and 6 push the cursor past them
	st.sendAll()
	if m := st.sub.metrics.snapshot(); m.EventsSent != 4 || m.BatchesSent != 2 {
		t.Fatalf("sent %d events in %d batches, want 4 in 2", m.EventsSent, m.BatchesSent)
	}
	var seqs []uint64
	var lost []delivery
	for _, d := range deliveries(t, st.conn.frames) {
		if d.seq != 0 {
			seqs = append(seqs, d.seq)
			continue
		}
		if len(seqs) != 2 {
			t.Fatalf("Lost notice after seqs %v, want it right after 1, 2", seqs)
		}
		lost = append(lost, d)
	}
	if !equalSeqs(seqs, 1, 2, 5, 6) || len(lost) != 1 || lost[0].from != 3 || lost[0].to != 4 {
		t.Fatalf("wrote seqs %v and notices %+v, want 1 2 5 6 around Lost 3..4", seqs, lost)
	}
	st.cut()
	st.rel.log.close()
}

func TestRelStateOversizedFrameStaysRepairable(t *testing.T) {
	st := newStream(64, 64, Block, 0)
	st.attach(0, 0)
	f := relFrame(1000) // alone over budget: kept anyway until displaced
	f.Retain(1)
	if err := st.publish(f); err != nil {
		t.Fatal(err)
	}
	st.sendAll()
	st.cut()
	if from, to := st.attach(0, st.rel.epoch); from != 1 || to != 1 {
		t.Fatalf("oversized frame not replayable: replay %d..%d", from, to)
	}
	st.sendAll()
	if err := st.publish(relFrame(10)); err != nil {
		t.Fatal(err)
	}
	st.sendAll() // displaces the oversized entry
	st.cut()
	if from, to := st.attach(0, st.rel.epoch); from != 2 || to != 2 {
		t.Fatalf("replay after displacement = %d..%d, want only seq 2", from, to)
	}
	st.cut()
	st.rel.log.close()
	if f.Refs() != 1 {
		t.Fatalf("oversized frame has %d refs after close, want 1", f.Refs())
	}
}

func TestRelStateNegativeBudgetSequencesOnly(t *testing.T) {
	st := newStream(-1, 64, Block, 0)
	st.attach(0, 0)
	f := relFrame(100)
	f.Retain(1)
	if err := st.publish(f); err != nil {
		t.Fatal(err)
	}
	st.sendAll()
	if got := eventSeqs(deliveries(t, st.conn.frames)); !equalSeqs(got, 1) {
		t.Fatalf("seqs = %v, want 1", got)
	}
	if f.Refs() != 1 {
		t.Fatalf("retention-disabled log retained the sent frame (%d refs)", f.Refs())
	}
	if err := st.publish(relFrame(100)); err != nil {
		t.Fatal(err)
	}
	st.cut() // the queued seq 2 is released, not kept for a replay
	if from, to := st.attach(0, st.rel.epoch); to != 0 {
		t.Fatalf("replay with retention disabled = %d..%d, want nothing", from, to)
	}
	st.cut()
}

// TestCollectWithRetentionDisabled: a reliable subscription whose log
// retains nothing (negative ReplayRingBytes) still exports its samples.
func TestCollectWithRetentionDisabled(t *testing.T) {
	const never = 1 << 60
	p := barePublisher(never)
	entry := compileImaging(t, p)
	plan, err := partition.NewPlan(entry.compiled.NumPSEs(), 0, []int32{partition.RawPSEID}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := bareSubscription(entry, never)
	s.rel = newRelState(-1, 4, DropNewest)
	s.pipe = newSendPipeline(s.conn, s.rel.log, supervision{}, batchConfig{}, s.metrics, nil)
	s.rel.log.attach(s.pipe, 0)
	if !p.register(s, "unretained", plan) {
		t.Fatal("register refused")
	}
	if _, err := p.Publish(imaging.NewFrame(16, 16, 1)); err != nil {
		t.Fatal(err)
	}
	samples := 0
	p.Collect(func(obsv.Sample) { samples++ })
	if samples == 0 {
		t.Fatal("Collect emitted nothing")
	}
	s.pipe.shutdown()
}

func TestRelStateResume(t *testing.T) {
	st := newStream(1<<20, 64, Block, 0)
	st.attach(0, 0)
	for i := 0; i < 6; i++ {
		if err := st.publish(relFrame(10)); err != nil {
			t.Fatal(err)
		}
	}
	st.sendAll()
	st.cut()
	from, to := st.attach(4, st.rel.epoch)
	if st.sub.pipe.lastSeq != 4 || from != 5 || to != 6 {
		t.Fatalf("resume from 4 = after %d replaying %d..%d, want after 4 replaying 5..6", st.sub.pipe.lastSeq, from, to)
	}
	// The resume point acts as a cumulative ack: only 5 and 6 remain,
	// queued again.
	if _, frames, _ := st.rel.log.stats(); frames != 0 || st.rel.log.queued() != 2 {
		t.Fatalf("log after resume = %d retained %d queued, want 0 and 2", frames, st.rel.log.queued())
	}
	st.sendAll()
	st.cut()
	// Fully caught up: nothing to replay.
	if from, to := st.attach(6, st.rel.epoch); to != 0 {
		t.Fatalf("caught-up resume replayed %d..%d", from, to)
	}
	st.cut()
	// A resume point past anything staged is clamped to the stream head.
	if st.attach(99, st.rel.epoch); st.sub.pipe.lastSeq != 6 {
		t.Fatalf("far-ahead resume point = %d, want 6", st.sub.pipe.lastSeq)
	}
	st.cut()
	st.rel.log.close()
}

func TestRelStateResumeForeignEpochIgnored(t *testing.T) {
	st := newStream(1<<20, 64, Block, 0)
	st.attach(0, 0)
	for i := 0; i < 3; i++ {
		if err := st.publish(relFrame(10)); err != nil {
			t.Fatal(err)
		}
	}
	st.sendAll()
	st.cut()
	// A resume point from a different stream says nothing about this one:
	// the connection starts from 0, as the subscriber does after resetting
	// on StreamStart, and — critically — nothing is released: the foreign
	// contig must not act as an ack against this stream's numbering.
	if from, to := st.attach(5, st.rel.epoch+1); st.sub.pipe.lastSeq != 0 || from != 1 || to != 3 {
		t.Fatalf("foreign-epoch resume = after %d replaying %d..%d, want the whole stream after 0", st.sub.pipe.lastSeq, from, to)
	}
	st.cut()
	// The epoch-0 "no stream adopted" sentinel is foreign to every state.
	if from, to := st.attach(2, 0); st.sub.pipe.lastSeq != 0 || from != 1 || to != 3 {
		t.Fatalf("epoch-0 resume = after %d replaying %d..%d, want the whole stream after 0", st.sub.pipe.lastSeq, from, to)
	}
	st.cut()
	st.rel.log.close()
}

func TestStreamEpochsDistinctAndNonZero(t *testing.T) {
	a, b := newRelState(0, 0, Block), newRelState(0, 0, Block)
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
	st := newStream(1<<20, 64, Block, 0)
	st.attach(0, 0)
	if err := st.publish(relFrame(10)); err != nil {
		t.Fatal(err)
	}
	st.sendAll()
	s := st.sub
	st.pub.handleAck(s, 99) // beyond anything sent: clamped and counted
	if got := s.metrics.acksClamped.Load(); got != 1 {
		t.Fatalf("acksClamped after corrupt ack = %d, want 1", got)
	}
	st.pub.handleAck(s, 1) // in range: not counted
	if got := s.metrics.acksClamped.Load(); got != 1 {
		t.Fatalf("acksClamped after valid ack = %d, want 1", got)
	}
	st.cut()
	st.rel.log.close()
}

// stage appends f to r's log through a session attached for the purpose
// and detached again.
func stage(t *testing.T, r *relState, f *wire.Frame) {
	t.Helper()
	p := newSendPipeline(newStubConn(false), r.log, supervision{}, batchConfig{}, &channelMetrics{}, nil)
	r.log.attach(p, 0)
	if err := r.log.append(p, f); err != nil {
		t.Fatal(err)
	}
	p.shutdown()
}

func TestAcquireRelStateResumesAcrossRetire(t *testing.T) {
	p := &Publisher{cfg: PublisherConfig{ReplayRingBytes: 1 << 20}}
	key := relKey{subscriber: "s", channel: "c", handler: "h"}
	st := p.acquireRelState(key, nil)
	stage(t, st, relFrame(10))

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
	stage(t, again, relFrame(10))
	if staged, _, _ := again.log.stats(); staged != 2 {
		t.Fatalf("adopted stream staged seq %d, want 2", staged)
	}
	p.closeRelStates()
}

func TestDetachRelStateOrphanCap(t *testing.T) {
	p := &Publisher{cfg: PublisherConfig{ReplayRingBytes: 1 << 20}}
	f := relFrame(10)
	f.Retain(1)
	var first *relState
	for i := 0; i <= maxOrphanRelStates; i++ {
		key := relKey{subscriber: string(rune('a' + i%26)), channel: "c", handler: string(rune('A' + i/26))}
		st := p.acquireRelState(key, nil)
		if i == 0 {
			first = st
			stage(t, st, f)
		} else {
			stage(t, st, relFrame(10))
		}
		p.detachRelState(st)
	}
	p.relMu.Lock()
	n := len(p.relStates)
	p.relMu.Unlock()
	if n != maxOrphanRelStates {
		t.Fatalf("%d orphans parked, cap is %d", n, maxOrphanRelStates)
	}
	// The oldest orphan was evicted and its log released.
	if f.Refs() != 1 || first.log.queued() != 0 {
		t.Fatalf("evicted oldest orphan still holds its frame (%d refs, %d queued)", f.Refs(), first.log.queued())
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

// resumeConn is a subscriber link scripted for handleConn: ReadFrame
// yields the handshake once, then blocks until Close. With a gate, every
// write after the first (the StreamStart) waits for it to open.
type resumeConn struct {
	*stubConn
	hello  []byte
	said   bool // handleConn's goroutine only
	gate   chan struct{}
	writes atomic.Int32
}

func (c *resumeConn) ReadFrame() ([]byte, error) {
	if !c.said {
		c.said = true
		return c.hello, nil
	}
	return c.stubConn.ReadFrame()
}

func (c *resumeConn) WriteFrame(payload []byte) error {
	if c.gate != nil && c.writes.Add(1) > 1 {
		select {
		case <-c.gate:
		case <-c.closed:
			return errors.New("resumeConn: closed")
		}
	}
	return c.stubConn.WriteFrame(payload)
}

// TestResumeReplayedCountsWrittenFrames: Replayed counts the replayed
// frames a resumed connection wrote, so over the resumed range every seq
// is either Replayed or DataLoss, never both. Under DropOldest a publish
// behind a long replay moves the cursor past replay entries; the sender
// declares them Lost, and they must not count as replayed too.
func TestResumeReplayedCountsWrittenFrames(t *testing.T) {
	reg, _ := imaging.Builtins()
	pub, err := NewPublisher(PublisherConfig{
		Transport:         transport.NewMem(),
		Builtins:          reg,
		QueueDepth:        2,
		OverflowPolicy:    DropOldest,
		HeartbeatInterval: -1,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	hello := func(resumeSeq, resumeEpoch uint64) []byte {
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
		return data
	}
	serve := func(c *resumeConn) {
		pub.wg.Add(1)
		go pub.handleConn(c)
		waitFor(t, "session", func() bool { return pub.Subscribers() == 1 })
	}
	publish := func(i int) {
		if _, err := pub.Publish(imaging.NewFrame(16, 16, int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	// The first session writes seqs 1..10 one at a time, so nothing drops,
	// and never acks: the log retains them all.
	const sent, resumeAt = 10, 2
	first := &resumeConn{stubConn: newStubConn(false), hello: hello(0, 0)}
	serve(first)
	for i := 1; i <= sent; i++ {
		publish(i)
		waitFor(t, "event written", func() bool { return pub.Subscriptions()[0].Metrics.EventsSent == uint64(i) })
	}
	start, ok := mustUnmarshal(t, first.written()[0]).(*wire.StreamStart)
	if !ok {
		t.Fatal("first frame of an at-least-once session is not a stream start")
	}
	_ = first.Close()
	waitFor(t, "first session retired", func() bool { return pub.Subscribers() == 0 })

	// Resume after seq 2 over a gated link: 3..10 replay. One publish while
	// the gate holds the replay overflows the depth-2 queue.
	second := &resumeConn{stubConn: newStubConn(false), hello: hello(resumeAt, start.Epoch), gate: make(chan struct{})}
	serve(second)
	publish(sent + 1)
	close(second.gate)
	var m ChannelMetrics
	waitFor(t, "the publish behind the replay written and counted", func() bool {
		frames := second.written()
		se, ok := mustUnmarshal(t, frames[len(frames)-1]).(*wire.SeqEvent)
		m = pub.Subscriptions()[0].Metrics
		return ok && se.Seq == sent+1 && m.Enqueued == m.EventsSent+m.Dropped
	})
	if m.DataLoss == 0 {
		t.Error("no replay entry was dropped: the publish did not overflow the queue behind the replay")
	}
	if got := m.Replayed + m.DataLoss; got != sent-resumeAt {
		t.Errorf("replayed %d + lost %d = %d over the resumed range %d..%d, want %d",
			m.Replayed, m.DataLoss, got, resumeAt+1, sent, sent-resumeAt)
	}
}
