package jecho_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// overfullContinuation re-encodes cont with more slots than any PSE of the
// test handlers carries, all absent, keeping its PSE id and seq: the
// receiver decodes the frame but cannot restore it.
func overfullContinuation(cont *wire.Continuation) *wire.Continuation {
	return &wire.Continuation{Seq: cont.Seq, PSEID: cont.PSEID, Forced: cont.Forced,
		ModWork: cont.ModWork, Vars: make([]wire.Slot, 64)}
}

// TestChaosPoisonPSEBreakerConverges is the acceptance scenario for the
// fault-containment layer: converge a channel on its optimal split, then
// poison that split edge so every continuation crossing it fails
// demodulation. The subscriber must quarantine each poisoned frame and NACK
// it upstream; the publisher's breaker must trip and the failure-aware
// min-cut must move the split to a healthy edge — all without the
// subscriber restarting, any goroutine dying, or a single poisoned event
// being silently dropped.
func TestChaosPoisonPSEBreakerConverges(t *testing.T) {
	// target is the PSE whose continuations get corrupted; inactive while
	// negative. The hook always records observed continuation traffic so
	// the test can poison an edge events actually cross. Corruption gives
	// the continuation more slots than its PSE carries: an attributable
	// restore fault in a frame that still decodes (PSE id and seq intact).
	var target atomic.Int32
	target.Store(-1)
	var poisoned atomic.Uint64
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
			poisoned.Add(1)
			return data
		},
	}
	flaky := transport.NewFlaky(transport.NewMem(), plan)
	// Long cooldowns keep the tripped PSE excluded for the whole test: no
	// mid-test half-open probe re-admitting the poisoned edge.
	pub := chaosPublisher(t, flaky, jecho.PublisherConfig{
		FeedbackEvery:     5,
		BreakerThreshold:  3,
		BreakerCooldown:   time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})
	sub := chaosSubscribe(t, flaky, pub.Addr(), jecho.SubscriberConfig{
		Name:              "poison",
		ReconfigEvery:     5,
		BreakerThreshold:  3,
		BreakerCooldown:   time.Hour,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})

	seq := int64(0)
	publish := func(n int) {
		for i := 0; i < n; i++ {
			_, _ = pub.Publish(imaging.NewFrame(200, 200, seq))
			seq++
			time.Sleep(time.Millisecond)
		}
	}

	// Phase 1: converge on the profiled optimum for large frames.
	publish(120)
	before, ok := theSession(pub)
	if !ok {
		t.Fatal("no session after convergence")
	}
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
		t.Fatalf("no continuation traffic after convergence (split %v)", before.SplitIDs)
	}

	// Phase 2: poison the busiest split edge; the plan must route around it.
	target.Store(tgt)
	deadline := time.Now().Add(10 * time.Second)
	var after jecho.SubscriptionInfo
	for {
		publish(5)
		if info, ok := theSession(pub); ok && !splitHas(info.SplitIDs, tgt) {
			after = info
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("plan still selects poisoned PSE %d (session: %+v)", tgt, pub.Subscriptions())
		}
	}

	// The degradation must be breaker-driven, on the same session, with the
	// subscriber alive throughout.
	if after.Metrics.BreakerTrips == 0 {
		t.Fatal("split moved but the breaker never tripped")
	}
	if after.ID != before.ID {
		t.Fatalf("session restarted during poisoning: %s then %s", before.ID, after.ID)
	}
	if got := sub.Metrics().Reconnects; got != 0 {
		t.Fatalf("subscriber reconnected %d times", got)
	}
	if err := sub.Err(); err != nil {
		t.Fatalf("subscriber failed: %v", err)
	}
	select {
	case <-sub.Done():
		t.Fatal("subscriber terminated during poisoning")
	default:
	}

	// Containment: every poisoned frame must be accounted for — one NACK
	// sent and one dead letter each, nothing silently dropped. Residual
	// poisoned frames may still be in flight right after the plan flip.
	deadline = time.Now().Add(5 * time.Second)
	for {
		sm := sub.Metrics()
		if sm.DeadLettered == poisoned.Load() && sm.NacksSent == sm.DeadLettered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poisoned=%d deadLettered=%d nacksSent=%d: quarantine incomplete",
				poisoned.Load(), sm.DeadLettered, sm.NacksSent)
		}
		time.Sleep(5 * time.Millisecond)
	}
	letters := sub.DeadLetters()
	if len(letters) == 0 {
		t.Fatal("no dead letters retained")
	}
	for _, dl := range letters {
		if dl.PSEID != tgt {
			t.Fatalf("dead letter attributes PSE %d, want %d", dl.PSEID, tgt)
		}
		if dl.Class != wire.NackRestore {
			t.Fatalf("dead letter class %v, want NackRestore", dl.Class)
		}
		if len(dl.Frame) == 0 {
			t.Fatal("dead letter retained no frame")
		}
	}

	// Phase 3: with the poisoned edge excluded, throughput returns and the
	// NACK stream stops.
	time.Sleep(50 * time.Millisecond)
	processedAt := sub.Processed()
	nacksAt := sub.Metrics().NacksSent
	publish(60)
	if got := sub.Processed(); got <= processedAt {
		t.Fatalf("no progress after degradation: processed %d then %d", processedAt, got)
	}
	if got := sub.Metrics().NacksSent; got != nacksAt {
		t.Fatalf("NACKs still flowing after degradation: %d then %d", nacksAt, got)
	}
}

// splitHas reports whether the split set contains the PSE.
func splitHas(split []int32, id int32) bool {
	for _, s := range split {
		if s == id {
			return true
		}
	}
	return false
}
