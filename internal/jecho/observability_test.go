package jecho_test

import (
	"testing"
	"time"

	"methodpart/internal/imaging"
	"methodpart/internal/partition"
)

// TestObservability exercises the Subscriptions and Stats views: after
// traffic, the publisher reports the active plan per subscription and the
// subscriber exposes the merged profiling snapshot.
func TestObservability(t *testing.T) {
	pub, sub, _, res := startPair(t)
	for i := 0; i < 12; i++ {
		publishReaching(t, pub, imaging.NewFrame(64, 64, int64(i)), 1)
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, res, 12)

	infos := pub.Subscriptions()
	if len(infos) != 1 {
		t.Fatalf("subscriptions = %+v", infos)
	}
	info := infos[0]
	if info.Handler != imaging.HandlerName {
		t.Errorf("handler = %q", info.Handler)
	}
	if info.PlanVersion == 0 {
		t.Error("plan never advanced past the bootstrap version")
	}
	if len(info.SplitIDs) == 0 {
		t.Errorf("no split flags in %+v", info)
	}

	stats := sub.Stats()
	raw, ok := stats[partition.RawPSEID]
	if !ok {
		t.Fatalf("stats missing raw PSE: %v", stats)
	}
	if raw.Bytes <= 0 {
		t.Errorf("raw bytes = %g", raw.Bytes)
	}
	if raw.DemodWork <= 0 {
		t.Errorf("raw demod work = %g", raw.DemodWork)
	}
}
