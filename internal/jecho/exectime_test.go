package jecho_test

import (
	"testing"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/jecho"
	"methodpart/internal/sensor"
)

// TestExecTimeAdaptationOverTCP closes the loop for the §4.2 model on real
// wire: a sensor chain subscribed with the exec-time model and a
// receiver-speed-poor environment must converge to cuts that leave most of
// the chain at the (fast) sender.
func TestExecTimeAdaptationOverTCP(t *testing.T) {
	const stages = 10
	pubReg, _ := sensor.Builtins(stages)
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

	subReg, sink := sensor.Builtins(stages)
	res := &results{}
	sub, err := jecho.Subscribe(jecho.SubscriberConfig{
		Addr:      pub.Addr(),
		Name:      "slow-consumer",
		Source:    sensor.HandlerSource(stages),
		Handler:   sensor.HandlerName,
		CostModel: costmodel.ExecTimeName,
		Natives:   []string{"deliver"},
		Builtins:  subReg,
		Environment: costmodel.Environment{
			SenderSpeed:   10000, // fast producer
			ReceiverSpeed: 500,   // slow consumer
			Bandwidth:     1e6,
			LatencyMS:     0.1,
		},
		OnResult:      res.add,
		ReconfigEvery: 2,
		DiffThreshold: 0.1,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}

	const frames = 40
	for i := 0; i < frames; i++ {
		publishReaching(t, pub, sensor.NewFrame(int64(i), 512), 1)
		time.Sleep(2 * time.Millisecond)
	}
	waitCount(t, res, frames)
	if len(sink.Outputs) != frames {
		t.Fatalf("delivered %d frames", len(sink.Outputs))
	}

	// The compiled handler has one PSE per stage boundary; with a 20x
	// faster sender the steady-state cut must sit in the later half of
	// the chain (sender does most stages).
	c := sub.Compiled()
	maxTo := 0
	for id := int32(1); id < int32(c.NumPSEs()); id++ {
		p, _ := c.PSE(id)
		if p.Edge.To > maxTo {
			maxTo = p.Edge.To
		}
	}
	pses := res.splitPSEs()
	late := 0
	for _, id := range pses[frames-10:] {
		if id <= 0 {
			continue
		}
		p, _ := c.PSE(id)
		if float64(p.Edge.To) > 0.5*float64(maxTo) {
			late++
		}
	}
	if late < 8 {
		t.Errorf("exec-time adaptation did not shift work to the fast sender: %v", pses)
	}
}
