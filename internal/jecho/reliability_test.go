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

// releaseReplay drops the caller-owned references a replaySet carries, so
// leak assertions on the underlying frames stay meaningful.
func releaseReplay(rep replaySet) {
	for _, q := range rep.frames {
		q.f.Release()
	}
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
	released, clamped, _, replay := r.onAck(3)
	if released != 3 || clamped || replay {
		t.Fatalf("onAck(3) = released %d clamped %v replay %v, want 3 false false", released, clamped, replay)
	}
	if _, ringFrames, ringBytes, _ := r.stats(); ringFrames != 2 || ringBytes != 200 {
		t.Fatalf("ring after ack = (%d frames, %d bytes), want (2, 200)", ringFrames, ringBytes)
	}
	// A re-ack of an already-released position must be a no-op.
	if released, _, _, _ := r.onAck(2); released != 0 {
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
	released, clamped, _, replay := r.onAck(1 << 60)
	if released != 4 || !clamped || replay {
		t.Fatalf("far-ahead ack = released %d clamped %v replay %v, want 4 true false", released, clamped, replay)
	}
	if seq, _ := r.stage(relFrame(50)); seq != 5 {
		t.Fatalf("seq after corrupt ack = %d, want 5", seq)
	}
	// Repeating the corrupt ack with everything released must not fire the
	// idle-replay heuristic on an empty tail.
	r.onAck(1 << 60)
	if _, _, _, replay := r.onAck(1 << 60); replay {
		t.Fatal("repeated far-ahead ack with nothing unacked fired a replay")
	}
	// An in-range ack never reports clamping.
	if _, clamped, _, _ := r.onAck(5); clamped {
		t.Fatal("in-range ack reported clamping")
	}
}

func TestRelStateIdleReplayHeuristic(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 5; i++ {
		r.stage(relFrame(10))
	}
	// First ack at 2: records the position, no replay yet.
	if _, _, _, replay := r.onAck(2); replay {
		t.Fatal("first ack fired a replay")
	}
	// Same ack again with nothing staged since: the tail 3..5 is stuck on
	// the subscriber side with no higher seq to reveal the gap — replay it.
	_, _, rep, replay := r.onAck(2)
	if !replay {
		t.Fatal("repeated idle ack did not fire the tail replay")
	}
	if len(rep.frames) != 3 || rep.frames[0].seq != 3 || rep.frames[2].seq != 5 {
		t.Fatalf("idle replay frames = %+v, want seqs 3..5", rep.frames)
	}
	if rep.lostTo != 0 {
		t.Fatalf("idle replay declared loss %d..%d with an intact ring", rep.lostFrom, rep.lostTo)
	}
	releaseReplay(rep)
	// The backoff doubles: the next identical ack only records, the one
	// after that replays again (a lost replay is retried, not spammed).
	if _, _, _, replay := r.onAck(2); replay {
		t.Fatal("heuristic did not back off after firing")
	}
	if _, _, rep, replay := r.onAck(2); !replay {
		t.Fatal("backed-off heuristic did not fire on the next repeat")
	} else {
		releaseReplay(rep)
	}
	// Staging between identical acks means the stream is moving: no replay.
	r.onAck(2)
	r.stage(relFrame(10))
	if _, _, _, replay := r.onAck(2); replay {
		t.Fatal("replay fired although frames were staged between acks")
	}
}

func TestRelStateIdleReplayBackoffDoubles(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 4; i++ {
		r.stage(relFrame(10))
	}
	r.onAck(1) // record the stalled position
	// A handler merely stalled (nothing acked, nothing staged) must not be
	// buried under a full-tail replay every other heartbeat: successive
	// fires for the same stalled ack follow a doubling schedule.
	var fires []int
	for ack := 1; ack <= 15; ack++ {
		if _, _, rep, replay := r.onAck(1); replay {
			fires = append(fires, ack)
			releaseReplay(rep)
		}
	}
	if want := []int{1, 3, 7, 15}; len(fires) != len(want) || fires[0] != 1 || fires[1] != 3 || fires[2] != 7 || fires[3] != 15 {
		t.Fatalf("idle replays fired at acks %v, want %v", fires, want)
	}
	// Ack progress resets the backoff: the very next repeat fires again.
	r.onAck(2)
	if _, _, rep, replay := r.onAck(2); !replay {
		t.Fatal("backoff did not reset after ack progress")
	} else {
		releaseReplay(rep)
	}
	r.close()
}

func TestRelStateEvictionDeclaresLostPrefix(t *testing.T) {
	r := newRelState(250) // holds two 100-byte frames, evicts beyond
	for i := 0; i < 5; i++ {
		r.stage(relFrame(100))
	}
	if _, ringFrames, _, evictions := r.stats(); ringFrames != 2 || evictions != 3 {
		t.Fatalf("ring = %d frames %d evictions, want 2 and 3", ringFrames, evictions)
	}
	rep := r.replayRange(1, 5)
	if rep.lostFrom != 1 || rep.lostTo != 3 {
		t.Fatalf("lost prefix = %d..%d, want 1..3", rep.lostFrom, rep.lostTo)
	}
	if len(rep.frames) != 2 || rep.frames[0].seq != 4 || rep.frames[1].seq != 5 {
		t.Fatalf("replayable tail = %+v, want seqs 4..5", rep.frames)
	}
	releaseReplay(rep)
	r.close()
}

// TestRepeatedIdleReplaysCountLossOnce: idle replays keep re-declaring
// the same evicted prefix in their Lost notices, but the publisher counts
// each evicted seq into DataLoss once, so its count equals the evictions
// exactly — also when a later eviction extends the prefix.
func TestRepeatedIdleReplaysCountLossOnce(t *testing.T) {
	p := &Publisher{cfg: PublisherConfig{Logf: t.Logf}}
	s := &subscription{id: "s", rel: newRelState(250), metrics: &channelMetrics{}} // two 100-byte frames fit
	s.pipe = newSendPipeline(nil, 64, DropNewest, supervision{}, batchConfig{}, s.metrics, nil)
	var notices []wire.Lost
	drain := func() {
		for len(s.pipe.ctrl) > 0 {
			msg, err := wire.Unmarshal(<-s.pipe.ctrl)
			if err != nil {
				t.Fatal(err)
			}
			notices = append(notices, *msg.(*wire.Lost))
		}
		for len(s.pipe.queue) > 0 {
			(<-s.pipe.queue).f.Release()
		}
	}
	idle := func(acks int) {
		for i := 0; i < acks; i++ {
			p.handleAck(s, 0) // the subscriber holds nothing contiguous
			drain()
		}
	}
	for i := 0; i < 5; i++ {
		s.rel.stage(relFrame(100)) // evicts 1..3
	}
	idle(16) // replays at the 1st, 3rd, 7th and 15th repeat
	if len(notices) != 4 {
		t.Fatalf("%d Lost notices after 16 idle acks, want 4", len(notices))
	}
	for _, n := range notices {
		if n.From != 1 || n.To != 3 {
			t.Fatalf("Lost notice %d..%d, want the whole evicted prefix 1..3", n.From, n.To)
		}
	}
	if got := s.metrics.dataLoss.Load(); got != 3 {
		t.Fatalf("DataLoss = %d after 4 replays of one 3-seq prefix, want 3", got)
	}

	for i := 0; i < 3; i++ {
		s.rel.stage(relFrame(100)) // evicts 4..6
	}
	notices = nil
	idle(20) // the backoff reached 16 repeats; staging did not reset it
	if len(notices) == 0 || notices[len(notices)-1].From != 1 || notices[len(notices)-1].To != 6 {
		t.Fatalf("Lost notices after the second eviction = %+v, want 1..6", notices)
	}
	_, _, _, evictions := s.rel.stats()
	if got := s.metrics.dataLoss.Load(); got != evictions || got != 6 {
		t.Fatalf("DataLoss = %d, evictions = %d, want both 6", got, evictions)
	}
	s.rel.close()
}

func TestRelStateOversizedFrameStaysRepairable(t *testing.T) {
	r := newRelState(64)
	f := relFrame(1000) // alone over budget: kept anyway until displaced
	r.stage(f)
	rep := r.replayRange(1, 1)
	if rep.lostTo != 0 || len(rep.frames) != 1 {
		t.Fatalf("oversized frame not repairable: %+v", rep)
	}
	releaseReplay(rep)
	r.stage(relFrame(10)) // displaces the oversized entry
	if rep := r.replayRange(1, 1); rep.lostFrom != 1 || rep.lostTo != 1 {
		t.Fatalf("displaced oversized frame not declared lost: %+v", rep)
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
	rep := r.replayRange(1, 1)
	if rep.lostFrom != 1 || rep.lostTo != 1 || len(rep.frames) != 0 {
		t.Fatalf("replay with retention disabled = %+v, want all lost", rep)
	}
}

func TestRelStateResume(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 6; i++ {
		r.stage(relFrame(10))
	}
	rep := r.resume(4, r.epoch)
	if rep.lostTo != 0 {
		t.Fatalf("resume declared loss %d..%d with an intact ring", rep.lostFrom, rep.lostTo)
	}
	if len(rep.frames) != 2 || rep.frames[0].seq != 5 || rep.frames[1].seq != 6 {
		t.Fatalf("resume replay = %+v, want seqs 5..6", rep.frames)
	}
	releaseReplay(rep)
	// The resume point acts as a cumulative ack.
	if _, ringFrames, _, _ := r.stats(); ringFrames != 2 {
		t.Fatalf("ring after resume = %d frames, want 2", ringFrames)
	}
	// Fully caught up: nothing to replay, nothing lost.
	if rep := r.resume(6, r.epoch); len(rep.frames) != 0 || rep.lostTo != 0 {
		t.Fatalf("caught-up resume = %+v, want empty", rep)
	}
	r.close()
}

func TestRelStateResumeForeignEpochIgnored(t *testing.T) {
	r := newRelState(1 << 20)
	for i := 0; i < 3; i++ {
		r.stage(relFrame(10))
	}
	// A resume point from a different stream says nothing about this one:
	// no replay (the subscriber resets on StreamStart and repairs via gap
	// requests) and — critically — no release: the foreign contig must not
	// act as an ack against this stream's numbering.
	rep := r.resume(5, r.epoch+1)
	if len(rep.frames) != 0 || rep.lostTo != 0 {
		t.Fatalf("foreign-epoch resume = %+v, want empty", rep)
	}
	if _, ringFrames, _, _ := r.stats(); ringFrames != 3 {
		t.Fatalf("foreign-epoch resume released ring entries (%d left, want 3)", ringFrames)
	}
	// The epoch-0 "no stream adopted" sentinel is foreign to every state.
	if rep := r.resume(2, 0); len(rep.frames) != 0 {
		t.Fatalf("epoch-0 resume replayed %d frames", len(rep.frames))
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
		deliver, _, gapTo, _, _ := r.admit(seq)
		if !deliver || gapTo != 0 {
			t.Fatalf("in-order admit(%d) = deliver %v gapTo %d", seq, deliver, gapTo)
		}
	}
	// Jump to 6: gap 4..5 must be requested exactly once.
	deliver, gapFrom, gapTo, _, _ := r.admit(6)
	if !deliver || gapFrom != 4 || gapTo != 5 {
		t.Fatalf("admit(6) = deliver %v gap %d..%d, want true 4..5", deliver, gapFrom, gapTo)
	}
	// A further jump requests only the uncovered part.
	if _, gapFrom, gapTo, _, _ := r.admit(8); gapFrom != 7 || gapTo != 7 {
		t.Fatalf("admit(8) requested %d..%d, want 7..7", gapFrom, gapTo)
	}
	// Duplicates: below contig and in the ahead set both drop, no request.
	if deliver, _, gapTo, _, _ := r.admit(2); deliver || gapTo != 0 {
		t.Fatal("admit of an old seq was delivered or re-requested")
	}
	if deliver, _, _, _, _ := r.admit(6); deliver {
		t.Fatal("admit of an ahead duplicate was delivered")
	}
	// Filling the gap merges the ahead set into contig.
	r.admit(4)
	if deliver, _, _, _, ackSeq := r.admit(5); !deliver || ackSeq != 6 {
		t.Fatalf("gap fill: deliver %v contig %d, want true 6", deliver, ackSeq)
	}
	r.admit(7)
	if got := r.contiguous(); got != 8 {
		t.Fatalf("contiguous = %d, want 8", got)
	}
}

func TestRelReceiverAckPacing(t *testing.T) {
	r := newRelReceiver(3)
	dues := 0
	for seq := uint64(1); seq <= 9; seq++ {
		if _, _, _, ackDue, _ := r.admit(seq); ackDue {
			dues++
		}
	}
	if dues != 3 {
		t.Fatalf("9 deliveries at AckEvery=3 paced %d acks, want 3", dues)
	}
}

func TestRelReceiverLostAdvancesAndCounts(t *testing.T) {
	r := newRelReceiver(1 << 60)
	r.admit(1)
	r.admit(2)
	r.admit(5) // ahead; 3..4 missing
	missing, ackSeq := r.lost(3, 6)
	// 3, 4 and 6 were never received; 5 was already here and must not be
	// counted as lost.
	if missing != 3 || ackSeq != 6 {
		t.Fatalf("lost(3,6) = %d missing ack %d, want 3 and 6", missing, ackSeq)
	}
	// A loss notice entirely in the past counts nothing.
	if missing, _ := r.lost(1, 4); missing != 0 {
		t.Fatalf("stale loss notice counted %d", missing)
	}
	// Delivery resumes cleanly after the advanced position.
	if deliver, _, gapTo, _, _ := r.admit(7); !deliver || gapTo != 0 {
		t.Fatalf("admit(7) after loss = deliver %v gapTo %d", deliver, gapTo)
	}
}

func TestRelReceiverResetRequests(t *testing.T) {
	r := newRelReceiver(1 << 60)
	r.admit(1)
	r.admit(4) // requests 2..3
	// Reconnect: the request died with the connection. After reset, a new
	// out-of-order arrival must re-request the still-open gap — but not the
	// already-received seq 4 at its edge.
	r.resetRequests()
	if _, gapFrom, gapTo, _, _ := r.admit(5); gapFrom != 2 || gapTo != 3 {
		t.Fatalf("post-reset admit(5) requested %d..%d, want 2..3", gapFrom, gapTo)
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
	r.admit(8) // 6..7 outstanding
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
	if deliver, _, gapTo, _, _ := r.admit(1); !deliver || gapTo != 0 {
		t.Fatalf("fresh stream's seq 1 after reset: deliver %v gapTo %d, want true 0", deliver, gapTo)
	}
}

func TestRelReceiverRetryGapBacksOff(t *testing.T) {
	r := newRelReceiver(1 << 60)
	r.admit(1)
	r.admit(4) // requests 2..3; pretend the replay was dropped
	// Tick 1 observes the post-admit progress; the gap must then persist
	// for 2 stalled ticks before the first re-request.
	if _, to := r.retryGap(); to != 0 {
		t.Fatal("progress-observation tick re-requested")
	}
	if _, to := r.retryGap(); to != 0 {
		t.Fatal("first stalled tick re-requested before the threshold")
	}
	if from, to := r.retryGap(); from != 2 || to != 3 {
		t.Fatalf("retry = %d..%d, want 2..3", from, to)
	}
	// The threshold doubles: the next retry takes 4 stalled ticks.
	for i := 0; i < 3; i++ {
		if _, to := r.retryGap(); to != 0 {
			t.Fatalf("backoff tick %d re-requested", i+1)
		}
	}
	if from, to := r.retryGap(); from != 2 || to != 3 {
		t.Fatalf("backed-off retry = %d..%d, want 2..3", from, to)
	}
	// Contig progress resets the pacing; a repaired gap stops it entirely.
	r.admit(2)
	if _, to := r.retryGap(); to != 0 {
		t.Fatal("progress tick re-requested")
	}
	r.admit(3) // merges 4: ahead drains
	if _, to := r.retryGap(); to != 0 {
		t.Fatal("repaired gap re-requested")
	}
	if got := r.contiguous(); got != 4 {
		t.Fatalf("contig after repair = %d, want 4", got)
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
	good, err := wire.Marshal(&wire.Raw{Handler: imaging.HandlerName, Seq: 1, Event: imaging.NewFrame(16, 16, 1)})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := wire.Marshal(&wire.Raw{Handler: imaging.HandlerName, Seq: 2, Event: imaging.NewFrame(16, 16, 2)})
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
