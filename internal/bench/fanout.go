package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// FanoutConfig drives the plan-equivalence fan-out experiment: N raw-conn
// subscribers with identical handlers on one in-process publisher, and the
// publish-side throughput measured as the subscriber count grows. Three
// plan modes isolate what class sharing buys:
//
//   - raw: everyone on the initial raw plan (one class, no modulation work);
//   - split-shared: everyone pushes the same split plan — one class, one
//     interpreter run and one marshal per event, fanned N ways;
//   - split-distinct: everyone pushes the same split plan, but each
//     subscriber sits on its own channel — N singleton classes (the channel
//     is part of the class key, and Publish broadcasts to every channel),
//     so every event is modulated N times: the seed's per-subscription
//     cost, reproduced for comparison.
type FanoutConfig struct {
	// Frames is the number of events published per row.
	Frames int
	// Subs lists the subscriber counts of the fan-out curve.
	Subs []int
	// DistinctCap skips the split-distinct baseline above this subscriber
	// count (N modulations per event make it quadratic in wall-clock).
	DistinctCap int
	// FrameSize is the square image edge length.
	FrameSize int
	// QueueDepth bounds each subscription's send queue.
	QueueDepth int
}

// DefaultFanoutConfig sweeps the curve the acceptance asks for: up to ten
// thousand subscribers on the shared path, with the per-subscription
// baseline carried to one thousand.
func DefaultFanoutConfig() FanoutConfig {
	return FanoutConfig{
		Frames:      200,
		Subs:        []int{16, 100, 1000, 10000},
		DistinctCap: 1000,
		FrameSize:   32,
		QueueDepth:  64,
	}
}

// FanoutRow is one (plan mode, subscriber count) measurement.
type FanoutRow struct {
	// Plan is the plan mode ("raw", "split-shared", "split-distinct").
	Plan string
	// Subs is the subscriber count.
	Subs int
	// Classes is the live plan-class count during the run.
	Classes int
	// EventsPerSec is publish-side throughput: events accepted per second.
	EventsPerSec float64
	// PerCore is EventsPerSec divided by GOMAXPROCS — the curve's y-axis.
	PerCore float64
	// HandoffsPerSec is queue handoffs per second (events × subscribers).
	HandoffsPerSec float64
	// ModRuns is how many modulator invocations the run cost.
	ModRuns uint64
	// ModSaved is how many per-subscriber runs class sharing avoided.
	ModSaved uint64
}

// FanoutExperiment runs the fan-out sweep and returns one row per
// (mode, subscriber count) pair.
func FanoutExperiment(cfg FanoutConfig) ([]FanoutRow, error) {
	var rows []FanoutRow
	for _, mode := range []string{"raw", "split-shared", "split-distinct"} {
		for _, n := range cfg.Subs {
			if mode == "split-distinct" && cfg.DistinctCap > 0 && n > cfg.DistinctCap {
				continue
			}
			row, err := runFanoutOnce(cfg, mode, n)
			if err != nil {
				return nil, fmt.Errorf("bench: fanout %s/%d: %w", mode, n, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// fanoutPeer is a raw-conn subscriber: handshake, then a drain goroutine.
type fanoutPeer struct {
	conn transport.Conn
}

func dialFanoutPeer(mem *transport.Mem, addr, name, channel string) (*fanoutPeer, error) {
	conn, err := mem.Dial(addr)
	if err != nil {
		return nil, err
	}
	hello, err := wire.Marshal(&wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: name,
		Channel:    channel,
		Handler:    imaging.HandlerName,
		Source:     imaging.HandlerSource(64),
		CostModel:  costmodel.DataSizeName,
		Natives:    []string{"displayImage"},
	})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := conn.WriteFrame(hello); err != nil {
		_ = conn.Close()
		return nil, err
	}
	p := &fanoutPeer{conn: conn}
	go func() {
		for {
			if _, err := conn.ReadFrame(); err != nil {
				return
			}
		}
	}()
	return p, nil
}

func (p *fanoutPeer) pushPlan() error {
	data, err := wire.Marshal(&wire.Plan{
		Handler: imaging.HandlerName,
		Version: 1,
		Split:   []int32{1, 3},
		Profile: []int32{0, 1, 2, 3},
	})
	if err != nil {
		return err
	}
	return p.conn.WriteFrame(data)
}

func runFanoutOnce(cfg FanoutConfig, mode string, n int) (FanoutRow, error) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Transport:         mem,
		Builtins:          reg,
		HeartbeatInterval: -1,
		FeedbackEvery:     1 << 40, // measure fan-out, not feedback traffic
		QueueDepth:        cfg.QueueDepth,
		OverflowPolicy:    jecho.DropOldest,
		Logf:              func(string, ...any) {},
	})
	if err != nil {
		return FanoutRow{}, err
	}
	defer pub.Close()

	peers := make([]*fanoutPeer, n)
	for i := range peers {
		name, channel := fmt.Sprintf("fan-%d", i), ""
		if mode == "split-distinct" {
			// One channel per subscriber gives every subscription its own
			// class key and so its own singleton class: the event is
			// modulated once per subscriber, like the pre-class publisher.
			channel = name
		}
		p, err := dialFanoutPeer(mem, pub.Addr(), name, channel)
		if err != nil {
			return FanoutRow{}, err
		}
		defer p.conn.Close()
		peers[i] = p
	}
	if err := waitCond(10*time.Second, func() bool { return pub.Subscribers() == n }); err != nil {
		return FanoutRow{}, fmt.Errorf("registration: %d of %d", pub.Subscribers(), n)
	}

	wantClasses := 1
	if mode == "split-distinct" {
		wantClasses = n
	}
	if mode != "raw" {
		for _, p := range peers {
			if err := p.pushPlan(); err != nil {
				return FanoutRow{}, err
			}
		}
		if err := waitCond(30*time.Second, func() bool {
			if pub.PlanClasses() != wantClasses {
				return false
			}
			for _, info := range pub.Subscriptions() {
				if info.PlanVersion == 0 {
					return false
				}
			}
			return true
		}); err != nil {
			return FanoutRow{}, fmt.Errorf("plan installation: %d classes, want %d", pub.PlanClasses(), wantClasses)
		}
	}

	runs0, saved0 := pub.ModulatorRuns(), pub.ModulationsSaved()
	event := imaging.NewFrame(cfg.FrameSize, cfg.FrameSize, 1)
	start := time.Now()
	var handoffs int64
	for i := 0; i < cfg.Frames; i++ {
		reached, err := pub.Publish(event)
		if err != nil {
			return FanoutRow{}, err
		}
		handoffs += int64(reached)
	}
	dur := time.Since(start).Seconds()
	if dur <= 0 {
		dur = 1e-9
	}
	eps := float64(cfg.Frames) / dur
	return FanoutRow{
		Plan:           mode,
		Subs:           n,
		Classes:        pub.PlanClasses(),
		EventsPerSec:   eps,
		PerCore:        eps / float64(runtime.GOMAXPROCS(0)),
		HandoffsPerSec: float64(handoffs) / dur,
		ModRuns:        pub.ModulatorRuns() - runs0,
		ModSaved:       pub.ModulationsSaved() - saved0,
	}, nil
}

func waitCond(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// WriteFanout renders the fan-out sweep.
func WriteFanout(w io.Writer, rows []FanoutRow) {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Plan,
			fmt.Sprintf("%d", r.Subs),
			fmt.Sprintf("%d", r.Classes),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.0f", r.PerCore),
			fmt.Sprintf("%.0f", r.HandoffsPerSec),
			fmt.Sprintf("%d", r.ModRuns),
			fmt.Sprintf("%d", r.ModSaved),
		})
	}
	writeTable(w, "Fan-out: plan-equivalence class sharing (publish-side throughput)",
		[]string{"plan", "subs", "classes", "events/s", "events/s/core", "handoffs/s", "mod runs", "mod saved"}, out)
}
