package jecho_test

import (
	"testing"
	"time"

	"methodpart/internal/jecho"
	"methodpart/internal/transport"
)

// idleIntervals is how many heartbeat intervals the idle-channel tests
// leave both ends alone.
const idleIntervals = 50

// idle waits idleIntervals heartbeat intervals and returns how many
// intervals really passed, so a host that delays the wake-up does not
// skew the per-interval rates below.
func idle(interval time.Duration) float64 {
	start := time.Now()
	time.Sleep(idleIntervals * interval)
	return float64(time.Since(start)) / float64(interval)
}

// waitSubscribed polls until the publisher registers one subscriber.
func waitSubscribed(t *testing.T, pub *jecho.Publisher) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIdlePublisherHeartbeatsNotEchoed: on an idle channel where both ends
// heartbeat, the publisher's heartbeats carry Seq 0 and the subscriber
// does not echo them, so the subscriber sends about one control frame per
// interval — its own heartbeat — instead of two. The publisher still hears
// the subscriber and keeps the session.
func TestIdlePublisherHeartbeatsNotEchoed(t *testing.T) {
	const interval = 10 * time.Millisecond
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{
		HeartbeatInterval: interval,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})
	sub := chaosSubscribe(t, mem, pub.Addr(), jecho.SubscriberConfig{
		Name:              "quiet",
		HeartbeatInterval: interval,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})
	waitSubscribed(t, pub)
	before, _ := theSession(pub)
	subSent, subRecv := sub.Metrics().HeartbeatsSent, sub.Metrics().HeartbeatsReceived

	elapsed := idle(interval)

	sent := float64(sub.Metrics().HeartbeatsSent - subSent)
	recv := float64(sub.Metrics().HeartbeatsReceived - subRecv)
	t.Logf("over %.0f intervals the subscriber sent %.0f heartbeat frames and received %.0f", elapsed, sent, recv)
	if recv < elapsed/4 {
		t.Fatalf("subscriber received %.0f publisher heartbeats in %.0f intervals; the publisher stopped heartbeating", recv, elapsed)
	}
	// Echoing every publisher heartbeat would double the subscriber's
	// frames to about two per interval; its own heartbeats are one.
	if sent > 1.25*elapsed+2 {
		t.Fatalf("subscriber sent %.0f heartbeat frames in %.0f intervals, want about one per interval (no echoes)", sent, elapsed)
	}
	after, ok := theSession(pub)
	if !ok || after.ID != before.ID {
		t.Fatalf("session %s did not survive the idle period (now %+v)", before.ID, pub.Subscriptions())
	}
}

// TestSilentSubscriberKeepsPublisherWindowFed: a subscriber that sends no
// heartbeats of its own (HeartbeatInterval -1) stays subscribed through an
// idle period many silence windows long, because the publisher probes it
// once it has been quiet for a while and its echoes feed the publisher's
// silence window.
func TestSilentSubscriberKeepsPublisherWindowFed(t *testing.T) {
	const interval = 10 * time.Millisecond
	mem := transport.NewMem()
	pub := chaosPublisher(t, mem, jecho.PublisherConfig{
		HeartbeatInterval: interval,
		HeartbeatMisses:   5,
		WriteTimeout:      time.Second,
	})
	sub := chaosSubscribe(t, mem, pub.Addr(), jecho.SubscriberConfig{
		Name:              "silent",
		HeartbeatInterval: -1,
		WriteTimeout:      time.Second,
	})
	waitSubscribed(t, pub)
	before, _ := theSession(pub)

	elapsed := idle(interval)

	after, ok := theSession(pub)
	if !ok || after.ID != before.ID {
		t.Fatalf("publisher retired the silent subscriber within %.0f intervals (sessions %+v)", elapsed, pub.Subscriptions())
	}
	if echoes := sub.Metrics().HeartbeatsSent; echoes == 0 {
		t.Fatal("subscriber answered no probe; nothing fed the publisher's silence window")
	}
}
