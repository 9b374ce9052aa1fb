package jecho_test

import (
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/mir"
)

// TestTwoSubscribersIndependentPlans reproduces the paper's Figure 1: one
// message sender serving two receivers through independent modulators,
// whose partitioning plans diverge because the receivers differ. Subscriber
// A has a tiny display (shipping the resized image is cheap → cut after the
// transform); subscriber B's display is larger than the frames (shipping
// the original is cheap → cut before it).
func TestTwoSubscribersIndependentPlans(t *testing.T) {
	pubReg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Addr:          "127.0.0.1:0",
		Builtins:      pubReg,
		FeedbackEvery: 2,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()

	type side struct {
		sub     *jecho.Subscriber
		display *imaging.Display
		splits  *results
	}
	mk := func(name string, display int) *side {
		reg, disp := imaging.Builtins()
		res := &results{}
		sub, err := jecho.Subscribe(jecho.SubscriberConfig{
			Addr:          pub.Addr(),
			Name:          name,
			Source:        imaging.HandlerSource(display),
			Handler:       imaging.HandlerName,
			CostModel:     costmodel.DataSizeName,
			Natives:       []string{"displayImage"},
			Builtins:      reg,
			Environment:   costmodel.DefaultEnvironment(),
			OnResult:      res.add,
			ReconfigEvery: 2,
			DiffThreshold: 0.1,
			Logf:          t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = sub.Close() })
		return &side{sub: sub, display: disp, splits: res}
	}
	small := mk("tiny-display", 32)   // 32x32 out of 128x128 frames
	large := mk("large-display", 256) // 256x256 out of 128x128 frames

	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("subscriptions never registered")
		}
		time.Sleep(time.Millisecond)
	}

	const frames = 40
	for i := 0; i < frames; i++ {
		publishReaching(t, pub, imaging.NewFrame(128, 128, int64(i)), 2)
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, small.splits, frames)
	waitCount(t, large.splits, frames)

	// Each receiver displayed at its own size.
	if w := small.display.Frames[0].Fields["width"]; w != mir.Int(32) {
		t.Errorf("small display width = %v", w)
	}
	if w := large.display.Frames[0].Fields["width"]; w != mir.Int(256) {
		t.Errorf("large display width = %v", w)
	}

	// Steady-state plans diverge: the tiny display converges to the
	// post-resize cut, the large display to raw/pre-resize.
	lastN := func(r *results, n int) []int32 {
		all := r.splitPSEs()
		return all[len(all)-n:]
	}
	post := 0
	for _, pse := range lastN(small.splits, 10) {
		if pse >= 3 {
			post++
		}
	}
	if post < 8 {
		t.Errorf("tiny display: only %d/10 late messages cut post-resize: %v", post, small.splits.splitPSEs())
	}
	early := 0
	for _, pse := range lastN(large.splits, 10) {
		if pse < 3 {
			early++
		}
	}
	if early < 8 {
		t.Errorf("large display: only %d/10 late messages cut early: %v", early, large.splits.splitPSEs())
	}
}
