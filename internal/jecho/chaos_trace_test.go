package jecho_test

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/obsv"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// TestChaosBreakerTripTraceSequence reruns the poison scenario with
// tracers attached and asserts the trace tells the degradation story in
// causal order. On the publisher the containment pipeline runs entirely on
// the control-read goroutine, so its trace sequence must show
//
//	nack-recv → breaker "open" → plan-flip
//
// for the poisoned PSE, with a flip whose split excludes it. The publisher
// falls back by scanning the cut table and never selects a plan, so its
// trace holds no min-cut event at all. On the subscriber, every
// quarantined frame must appear as a nack-sent and a dead-letter event.
func TestChaosBreakerTripTraceSequence(t *testing.T) {
	var target atomic.Int32
	target.Store(-1)
	var seenMu sync.Mutex
	seen := make(map[int32]uint64)
	plan := transport.FaultPlan{
		Seed: 1,
		Corrupt: func(payload []byte) []byte {
			msg, err := wire.Unmarshal(payload)
			if err != nil {
				return nil
			}
			cont, ok := msg.(*wire.Continuation)
			if !ok {
				return nil
			}
			seenMu.Lock()
			seen[cont.PSEID]++
			seenMu.Unlock()
			if tgt := target.Load(); tgt < 0 || cont.PSEID != tgt {
				return nil
			}
			data, err := wire.Marshal(overfullContinuation(cont))
			if err != nil {
				return nil
			}
			return data
		},
	}
	flaky := transport.NewFlaky(transport.NewMem(), plan)
	pubTrace := obsv.NewTracer(4096)
	subTrace := obsv.NewTracer(4096)
	pub := chaosPublisher(t, flaky, jecho.PublisherConfig{
		FeedbackEvery:     5,
		BreakerThreshold:  3,
		BreakerCooldown:   time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
		Tracer:            pubTrace,
	})
	sub := chaosSubscribe(t, flaky, pub.Addr(), jecho.SubscriberConfig{
		Name:              "trace",
		ReconfigEvery:     5,
		BreakerThreshold:  3,
		BreakerCooldown:   time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
		Tracer:            subTrace,
	})

	seq := int64(0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = pub.Publish(imaging.NewFrame(200, 200, seq))
			seq++
			time.Sleep(time.Millisecond)
		}
	}

	// Converge, then poison the busiest split edge.
	publish(120)
	var tgt int32 = -1
	var most uint64
	seenMu.Lock()
	for id, n := range seen {
		if n > most {
			tgt, most = id, n
		}
	}
	seenMu.Unlock()
	if tgt < 0 {
		t.Fatal("no continuation traffic after convergence")
	}
	target.Store(tgt)
	deadline := time.Now().Add(10 * time.Second)
	for {
		publish(5)
		if info, ok := theSession(pub); ok && !splitHas(info.SplitIDs, tgt) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan still selects poisoned PSE %d", tgt)
		}
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscriber failed: %v", err)
	}

	// The trace emits the plan-flip event just after installing the plan the
	// loop above observed; give the control goroutine a beat to get there.
	var events []obsv.Event
	var idxNack, idxOpen, idxFlip int
	deadline = time.Now().Add(2 * time.Second)
	for {
		events = pubTrace.Snapshot()
		idxNack, idxOpen, idxFlip = scanDegradeSequence(events, tgt)
		if idxFlip >= 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if idxNack < 0 {
		t.Fatal("trace has no nack-recv for the poisoned PSE")
	}
	if idxOpen < 0 {
		t.Fatalf("trace has no breaker-open after the first nack-recv (nack at %d)", idxNack)
	}
	if idxFlip < 0 {
		t.Fatalf("trace has no plan-flip after the breaker opened (open at %d)", idxOpen)
	}
	if split := flipSplit(t, events[idxFlip]); splitHas(split, tgt) {
		t.Fatalf("plan-flip after the breaker opened splits at %v, which holds the poisoned PSE %d", split, tgt)
	}
	if pubTrace.Dropped() > 0 {
		t.Fatalf("publisher trace ring dropped %d events; the min-cut check needs them all", pubTrace.Dropped())
	}
	for _, ev := range events {
		if ev.Kind == obsv.EvMinCut {
			t.Fatalf("publisher trace holds a min-cut event: %+v", ev)
		}
	}

	// Subscriber side: the quarantine leaves a matched nack-sent +
	// dead-letter pair per poisoned frame.
	var nacksSent, deadLetters int
	for _, ev := range subTrace.Snapshot() {
		switch ev.Kind {
		case obsv.EvNackSent:
			if ev.PSE != tgt {
				t.Fatalf("nack-sent blames PSE %d, want %d", ev.PSE, tgt)
			}
			nacksSent++
		case obsv.EvDeadLetter:
			if ev.PSE != tgt {
				t.Fatalf("dead-letter attributes PSE %d, want %d", ev.PSE, tgt)
			}
			if ev.Detail != wire.NackRestore.String() {
				t.Fatalf("dead-letter class %q, want %q", ev.Detail, wire.NackRestore)
			}
			deadLetters++
		}
	}
	if nacksSent == 0 || deadLetters == 0 {
		t.Fatalf("subscriber trace: %d nack-sent, %d dead-letter events", nacksSent, deadLetters)
	}
}

// scanDegradeSequence finds the first causal chain
// nack-recv → breaker open → plan-flip for the PSE in the publisher's
// trace, returning the index of each link (-1 when the chain breaks there).
func scanDegradeSequence(events []obsv.Event, pse int32) (idxNack, idxOpen, idxFlip int) {
	idxNack, idxOpen, idxFlip = -1, -1, -1
	for i, ev := range events {
		switch {
		case idxNack < 0:
			if ev.Kind == obsv.EvNackRecv && ev.PSE == pse {
				idxNack = i
			}
		case idxOpen < 0:
			if ev.Kind == obsv.EvBreaker && ev.PSE == pse && ev.Detail == "open" {
				idxOpen = i
			}
		case idxFlip < 0:
			if ev.Kind == obsv.EvPlanFlip {
				idxFlip = i
			}
		}
	}
	return idxNack, idxOpen, idxFlip
}

// flipSplit parses the split set out of a plan-flip event's
// "split=[1 3]" detail.
func flipSplit(t *testing.T, ev obsv.Event) []int32 {
	t.Helper()
	inner, ok := strings.CutPrefix(ev.Detail, "split=[")
	if !ok || !strings.HasSuffix(inner, "]") {
		t.Fatalf("plan-flip detail %q, want split=[...]", ev.Detail)
	}
	var split []int32
	for _, f := range strings.Fields(strings.TrimSuffix(inner, "]")) {
		id, err := strconv.ParseInt(f, 10, 32)
		if err != nil {
			t.Fatalf("plan-flip detail %q: %v", ev.Detail, err)
		}
		split = append(split, int32(id))
	}
	return split
}
