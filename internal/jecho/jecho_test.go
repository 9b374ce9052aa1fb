package jecho_test

import (
	"sync"
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/mir"
	"methodpart/internal/partition"
)

// startPair brings up a publisher and an image-handler subscription over
// localhost TCP, returning them plus the receiver display.
func startPair(t *testing.T) (*jecho.Publisher, *jecho.Subscriber, *imaging.Display, *results) {
	t.Helper()
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
	t.Cleanup(func() { _ = pub.Close() })

	subReg, disp := imaging.Builtins()
	res := &results{}
	sub, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:          pub.Addr(),
		Name:          "client",
		Source:        imaging.HandlerSource(160),
		Handler:       imaging.HandlerName,
		CostModel:     costmodel.DataSizeName,
		Natives:       []string{"displayImage"},
		Builtins:      subReg,
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

	// Wait for the publisher to register the subscription.
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return pub, sub, disp, res
}

type results struct {
	mu   sync.Mutex
	got  []*partition.Result
	pses []int32
}

func (r *results) add(res *partition.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, res)
	r.pses = append(r.pses, res.SplitPSE)
}

func (r *results) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func (r *results) splitPSEs() []int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int32, len(r.pses))
	copy(out, r.pses)
	return out
}

func waitCount(t *testing.T, r *results, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d results", r.count(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndToEndDelivery publishes frames over real TCP and checks they reach
// the native display resized.
func TestEndToEndDelivery(t *testing.T) {
	pub, _, disp, res := startPair(t)

	const frames = 10
	for i := 0; i < frames; i++ {
		n, err := pub.Publish(imaging.NewFrame(80, 80, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("reached %d subscribers", n)
		}
	}
	waitCount(t, res, frames)
	if len(disp.Frames) != frames {
		t.Fatalf("displayed %d frames, want %d", len(disp.Frames), frames)
	}
	for _, f := range disp.Frames {
		if f.Fields["width"] != mir.Int(160) || f.Fields["height"] != mir.Int(160) {
			t.Fatalf("frame not resized to display: %vx%v", f.Fields["width"], f.Fields["height"])
		}
	}
}

// TestAdaptationOverTCP drives the full closed loop: small frames first
// (optimal: ship original), then large frames (optimal: resize at sender);
// the split point must move.
func TestAdaptationOverTCP(t *testing.T) {
	pub, _, _, res := startPair(t)

	publish := func(size, n int, from int) {
		for i := 0; i < n; i++ {
			if _, err := pub.Publish(imaging.NewFrame(size, size, int64(from+i))); err != nil {
				t.Fatal(err)
			}
			// Small pacing gap lets plans propagate like a real stream.
			time.Sleep(2 * time.Millisecond)
		}
	}
	publish(80, 25, 0)
	waitCount(t, res, 25)
	publish(220, 25, 25)
	waitCount(t, res, 50)

	pses := res.splitPSEs()
	// Steady state of phase 1 (frames 15-24): the split must ship the
	// original (raw PSE or pre-resize cut): the resume node lies at or
	// before the resize call. Steady state of phase 2 (frames 40-49):
	// the split must be after the resize.
	countLate := func(lo, hi int, after bool) int {
		n := 0
		for _, pse := range pses[lo:hi] {
			if pse == partition.RawPSEID {
				if !after {
					n++
				}
				continue
			}
			if after == (pse >= 3) { // post-resize PSE has the highest id
				n++
			}
		}
		return n
	}
	if got := countLate(15, 25, false); got < 8 {
		t.Errorf("phase 1 steady state: only %d/10 messages shipped pre-resize (pses=%v)", got, pses)
	}
	if got := countLate(40, 50, true); got < 8 {
		t.Errorf("phase 2 steady state: only %d/10 messages split post-resize (pses=%v)", got, pses)
	}
}

// TestNonImageEventsFiltered checks sender-side filtering over TCP: events
// of the wrong type must not reach the subscriber once the plan includes
// the filter-path PSE.
func TestNonImageEventsFiltered(t *testing.T) {
	pub, _, disp, res := startPair(t)

	// Converge onto a modulated plan first.
	for i := 0; i < 10; i++ {
		if _, err := pub.Publish(imaging.NewFrame(80, 80, int64(i))); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, res, 10)
	before := res.count()
	suppressed0 := pub.Subscriptions()[0].Metrics.Suppressed
	for i := 0; i < 5; i++ {
		if _, err := pub.Publish(mir.Str("junk")); err != nil {
			t.Fatal(err)
		}
	}
	// One more image flushes the stream so we can wait deterministically.
	if _, err := pub.Publish(imaging.NewFrame(80, 80, 99)); err != nil {
		t.Fatal(err)
	}
	// Every message the sender did not filter yields a result (under a raw
	// plan the junk ships and the receiver filters it), so wait for exactly
	// that many: the last one is the image's.
	shipped := 6 - int(pub.Subscriptions()[0].Metrics.Suppressed-suppressed0)
	waitCount(t, res, before+shipped)
	if got := len(disp.Frames); got != before+1 {
		t.Fatalf("displayed %d, want %d (junk must not display)", got, before+1)
	}
}
