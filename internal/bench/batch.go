package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/jecho"
	"methodpart/internal/transport"
	"methodpart/internal/wire"
)

// BatchConfig drives the wire-level batching comparison: the same
// small-payload publish burst pushed through one subscription with
// batching off and then on, so the two rows differ only in how frames
// leave the send pipeline.
type BatchConfig struct {
	// Frames is the number of events per measured run.
	Frames int
	// FrameSize is the square image edge length — kept small so framing
	// overhead, the thing batching amortizes, is a visible fraction of
	// the per-event cost.
	FrameSize int
	// BatchBytes is the coalescing budget of the batched run.
	BatchBytes int
	// BatchDelay is the linger window of the batched run.
	BatchDelay time.Duration
}

// DefaultBatchConfig measures 2000 tiny frames against a 64 KiB budget.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{Frames: 2000, FrameSize: 8, BatchBytes: 64 << 10}
}

// BatchRow is one mode's outcome.
type BatchRow struct {
	// Mode names the sender configuration ("unbatched", "batched(64KiB)").
	Mode string
	// Frames is the measured event count.
	Frames int
	// EventsPerSec is end-to-end throughput: publish start to the last
	// event arriving at the consumer.
	EventsPerSec float64
	// AllocsPerEvent is the process-wide heap allocation count per event
	// during the measured window (publisher, pipeline and consumer).
	AllocsPerEvent float64
	// Batches is how many batch wire frames the run produced.
	Batches uint64
	// MeanBatch is the mean events per batch frame (0 when unbatched).
	MeanBatch float64
	// WireKB is the event bytes that crossed the wire, framing included.
	WireKB float64
}

// BatchExperiment publishes the same burst unbatched and batched and reports
// throughput, allocation rate and wire volume for each. The consumer is a
// raw peer that counts events without demodulating, so the table isolates
// the channel wire layer — the cost batching actually changes — from
// interpreter work.
func BatchExperiment(cfg BatchConfig) ([]BatchRow, error) {
	if cfg.Frames <= 0 {
		cfg.Frames = DefaultBatchConfig().Frames
	}
	if cfg.FrameSize <= 0 {
		cfg.FrameSize = DefaultBatchConfig().FrameSize
	}
	if cfg.BatchBytes <= 0 {
		cfg.BatchBytes = DefaultBatchConfig().BatchBytes
	}
	var rows []BatchRow
	for _, batchBytes := range []int{0, cfg.BatchBytes} {
		row, err := runBatchOnce(cfg, batchBytes)
		if err != nil {
			return nil, fmt.Errorf("bench: batch (budget %d): %w", batchBytes, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runBatchOnce(cfg BatchConfig, batchBytes int) (BatchRow, error) {
	mem := transport.NewMem()
	reg, _ := imaging.Builtins()
	pub, err := jecho.NewPublisher(jecho.PublisherConfig{
		Transport: mem,
		Builtins:  reg,
		// Keep profiling reports and heartbeats out of the measured loop:
		// the comparison is about event framing, not control traffic.
		FeedbackEvery:     1 << 30,
		HeartbeatInterval: -1,
		QueueDepth:        64,
		BatchBytes:        batchBytes,
		BatchDelay:        cfg.BatchDelay,
		Logf:              func(string, ...any) {},
	})
	if err != nil {
		return BatchRow{}, err
	}
	defer pub.Close()

	// The consumer: a raw peer that unpacks frames and counts events
	// without running a demodulator.
	conn, err := mem.Dial(pub.Addr())
	if err != nil {
		return BatchRow{}, err
	}
	defer conn.Close()
	hello, err := wire.Marshal(&wire.Subscribe{
		Protocol:   wire.ProtocolVersion,
		Subscriber: "consumer",
		Handler:    imaging.HandlerName,
		Source:     imaging.HandlerSource(64),
		CostModel:  costmodel.DataSizeName,
		Natives:    []string{"displayImage"},
	})
	if err != nil {
		return BatchRow{}, err
	}
	if err := conn.WriteFrame(hello); err != nil {
		return BatchRow{}, err
	}
	var received atomic.Uint64
	go func() {
		for {
			frame, err := conn.ReadFrame()
			if err != nil {
				return
			}
			msg, err := wire.Unmarshal(frame)
			if err != nil {
				continue
			}
			switch m := msg.(type) {
			case *wire.Batch:
				received.Add(uint64(len(m.Entries)))
			case *wire.Raw, *wire.Continuation:
				received.Add(1)
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for pub.Subscribers() != 1 {
		if time.Now().After(deadline) {
			return BatchRow{}, fmt.Errorf("subscription never registered")
		}
		time.Sleep(time.Millisecond)
	}

	waitReceived := func(want uint64) error {
		deadline := time.Now().Add(30 * time.Second)
		for received.Load() < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("consumer saw %d of %d events", received.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	// Warm the path (pools, maps, lazily sized buffers) outside the
	// measured window.
	const warmup = 64
	for i := 0; i < warmup; i++ {
		if _, err := pub.Publish(imaging.NewFrame(cfg.FrameSize, cfg.FrameSize, int64(i))); err != nil {
			return BatchRow{}, err
		}
	}
	if err := waitReceived(warmup); err != nil {
		return BatchRow{}, err
	}
	before := pub.Subscriptions()[0].Metrics

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < cfg.Frames; i++ {
		if _, err := pub.Publish(imaging.NewFrame(cfg.FrameSize, cfg.FrameSize, int64(warmup+i))); err != nil {
			return BatchRow{}, err
		}
	}
	if err := waitReceived(warmup + uint64(cfg.Frames)); err != nil {
		return BatchRow{}, err
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	after := pub.Subscriptions()[0].Metrics

	mode := "unbatched"
	if batchBytes > 0 {
		mode = fmt.Sprintf("batched(%dKiB)", batchBytes>>10)
	}
	row := BatchRow{
		Mode:           mode,
		Frames:         cfg.Frames,
		EventsPerSec:   float64(cfg.Frames) / elapsed.Seconds(),
		AllocsPerEvent: float64(ms1.Mallocs-ms0.Mallocs) / float64(cfg.Frames),
		Batches:        after.BatchesSent - before.BatchesSent,
		WireKB:         float64(after.BytesOnWire-before.BytesOnWire) / 1024,
	}
	if row.Batches > 0 {
		row.MeanBatch = float64(after.BatchedEvents-before.BatchedEvents) / float64(row.Batches)
	}
	return row, nil
}

// WriteBatch renders the batching comparison.
func WriteBatch(w io.Writer, rows []BatchRow) {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Frames),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.1f", r.AllocsPerEvent),
			fmt.Sprintf("%d", r.Batches),
			fmt.Sprintf("%.1f", r.MeanBatch),
			fmt.Sprintf("%.1f", r.WireKB),
		})
	}
	writeTable(w, "Wire-level batching: small-payload burst, raw consumer (mem transport)",
		[]string{"mode", "frames", "events/sec", "allocs/event", "batches", "meanBatch", "wireKB"},
		out)
}
