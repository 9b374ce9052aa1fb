// Command mpdemo runs a two-process Method Partitioning demo over real TCP:
// start the subscriber (receiver) first, then point the publisher at it, or
// use -mode both to run the full loop in one process.
//
//	mpdemo -mode both
//	mpdemo -mode both -queue 8 -overflow drop-oldest
//	mpdemo -mode both -debug-addr 127.0.0.1:8377 -trace trace.jsonl
//	mpdemo -mode both -split-policy latency-first
//	mpdemo -mode publish -addr 127.0.0.1:7000 -frames 50
//	mpdemo -mode subscribe -addr 127.0.0.1:7000
//
// In publish/subscribe mode the roles are reversed from the subscription
// flow: the *publisher* listens and the subscriber dials it, matching the
// jecho handshake. On exit, publish/both modes print the per-subscription
// channel metrics (drops, queue high-water, bytes on wire vs. saved).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"methodpart"
	"methodpart/internal/imaging"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mpdemo:", err)
		os.Exit(1)
	}
}

// demoFlags bundles mpdemo's flag set so the EXPERIMENTS.md drift guard
// (flags_doc_test.go) can enumerate exactly the flags the binary registers.
type demoFlags struct {
	fs           *flag.FlagSet
	mode         *string
	addr         *string
	frames       *int
	display      *int
	queue        *int
	overflow     *string
	heartbeat    *time.Duration
	batchBytes   *int
	batchDelay   *time.Duration
	writeTimeout *time.Duration
	resubscribe  *bool
	maxWork      *int64
	deadletter   *bool
	splitPolicy  *string
	linkEstimate *time.Duration
	flipMargin   *float64
	flipConfirm  *int
	debugAddr    *string
	trace        *string
}

// newDemoFlags declares every mpdemo flag on a fresh flag set.
func newDemoFlags() *demoFlags {
	fs := flag.NewFlagSet("mpdemo", flag.ContinueOnError)
	return &demoFlags{
		fs:           fs,
		mode:         fs.String("mode", "both", "both | publish | subscribe"),
		addr:         fs.String("addr", "127.0.0.1:0", "publisher listen address (publish/both) or target (subscribe)"),
		frames:       fs.Int("frames", 40, "frames to publish"),
		display:      fs.Int("display", 160, "subscriber display size"),
		queue:        fs.Int("queue", 0, "per-subscription send queue depth (0 = default)"),
		overflow:     fs.String("overflow", "block", "send queue overflow policy: block | drop-newest | drop-oldest"),
		heartbeat:    fs.Duration("heartbeat", 0, "idle-liveness heartbeat interval (0 = default, negative = disabled)"),
		batchBytes:   fs.Int("batch-bytes", 0, "coalesce queued event frames into batch wire frames up to this many payload bytes (0 = batching off)"),
		batchDelay:   fs.Duration("batch-delay", 0, "linger this long for more frames after the first of a batch (needs -batch-bytes)"),
		writeTimeout: fs.Duration("write-timeout", 0, "per-frame write deadline (0 = default, negative = disabled)"),
		resubscribe:  fs.Bool("resubscribe", false, "subscriber auto-redials and resyncs after connection loss"),
		maxWork:      fs.Int64("max-work", 0, "per-message interpreter work budget at the subscriber (>0 enables)"),
		deadletter:   fs.Bool("deadletter", false, "print the subscriber's dead-letter quarantine on exit"),
		splitPolicy:  fs.String("split-policy", "balanced", "subscriber SLO policy picking the split off the Pareto front: balanced | latency-first | cost-first | receiver-weak"),
		linkEstimate: fs.Duration("link-estimate-interval", 0, "measure the link from heartbeat echoes and bytes-on-wire, refreshing the cost-model environment this often (0 = off; needs heartbeats)"),
		flipMargin:   fs.Float64("flip-margin", 0, "flip hysteresis: a challenger cut must beat the incumbent's primary objective by this fraction (e.g. 0.1; 0 = flip eagerly)"),
		flipConfirm:  fs.Int("flip-confirmations", 0, "flip hysteresis: consecutive margin-beating selections required before a flip (0 = default 3; needs -flip-margin)"),
		debugAddr:    fs.String("debug-addr", "", "serve /metrics and /debug/split on this address (e.g. 127.0.0.1:8377; empty = off)"),
		trace:        fs.String("trace", "", "dump the split-lifecycle trace as JSON lines to this file on exit (\"-\" = stdout; empty = off)"),
	}
}

func run(args []string) error {
	df := newDemoFlags()
	if err := df.fs.Parse(args); err != nil {
		return err
	}
	policy, err := parsePolicy(*df.overflow)
	if err != nil {
		return err
	}
	splitPolicy, err := methodpart.ParseSLOPolicy(*df.splitPolicy)
	if err != nil {
		return err
	}
	sup := supervisionFlags{
		heartbeat:    *df.heartbeat,
		writeTimeout: *df.writeTimeout,
		resubscribe:  *df.resubscribe,
		maxWork:      *df.maxWork,
		deadletter:   *df.deadletter,
		batchBytes:   *df.batchBytes,
		batchDelay:   *df.batchDelay,
		splitPolicy:  splitPolicy,
		linkEstimate: *df.linkEstimate,
		flipMargin:   *df.flipMargin,
		flipConfirm:  *df.flipConfirm,
	}
	obs := newObservability(*df.debugAddr, *df.trace)
	defer obs.finish()
	switch *df.mode {
	case "both":
		return runBoth(*df.addr, *df.frames, *df.display, *df.queue, policy, sup, obs)
	case "publish":
		return runPublisher(*df.addr, *df.frames, *df.queue, policy, sup, true, obs)
	case "subscribe":
		return runSubscriber(*df.addr, *df.display, sup, obs)
	default:
		return fmt.Errorf("unknown mode %q", *df.mode)
	}
}

// observability bundles the -debug-addr / -trace wiring: one tracer and
// metrics registry shared by whatever endpoints the chosen mode creates.
type observability struct {
	tracer    *methodpart.Tracer
	registry  *methodpart.MetricsRegistry
	debugAddr string
	tracePath string
	server    *methodpart.DebugServer
	status    []func() methodpart.EndpointStatus
}

func newObservability(debugAddr, tracePath string) *observability {
	o := &observability{debugAddr: debugAddr, tracePath: tracePath}
	if debugAddr != "" || tracePath != "" {
		o.tracer = methodpart.NewTracer(methodpart.DefaultTraceCapacity)
	}
	if debugAddr != "" {
		o.registry = methodpart.NewMetricsRegistry()
	}
	return o
}

// attach registers an endpoint (Publisher or Subscriber) with the metrics
// registry and the /debug/split status table.
func (o *observability) attach(c methodpart.MetricsCollector, status func() methodpart.EndpointStatus) {
	if o.registry != nil {
		o.registry.Register(c)
		o.status = append(o.status, status)
	}
}

// start binds the debug listener once every endpoint is attached.
func (o *observability) start() error {
	if o.debugAddr == "" {
		return nil
	}
	statuses := o.status
	srv, err := methodpart.StartDebug(methodpart.DebugConfig{
		Addr:     o.debugAddr,
		Registry: o.registry,
		Tracer:   o.tracer,
		Split: func() []methodpart.EndpointStatus {
			out := make([]methodpart.EndpointStatus, 0, len(statuses))
			for _, fn := range statuses {
				out = append(out, fn())
			}
			return out
		},
	})
	if err != nil {
		return err
	}
	o.server = srv
	fmt.Printf("debug listener at http://%s (/metrics /metrics.json /debug/split /debug/trace /debug/pprof/)\n", srv.Addr())
	return nil
}

// finish dumps the trace (if requested) and stops the debug listener.
func (o *observability) finish() {
	if o.tracePath != "" {
		w := os.Stdout
		if o.tracePath != "-" {
			f, err := os.Create(o.tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpdemo: trace:", err)
				return
			}
			defer f.Close()
			w = f
		}
		if err := o.tracer.WriteJSON(w); err != nil {
			fmt.Fprintln(os.Stderr, "mpdemo: trace:", err)
		}
		if d := o.tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "mpdemo: trace ring dropped %d oldest events\n", d)
		}
	}
	if o.server != nil {
		o.server.Close()
	}
}

// supervisionFlags bundles the connection-supervision and fault-containment
// knobs shared by both roles.
type supervisionFlags struct {
	heartbeat    time.Duration
	writeTimeout time.Duration
	resubscribe  bool
	maxWork      int64
	deadletter   bool
	batchBytes   int
	batchDelay   time.Duration
	splitPolicy  methodpart.SLOPolicy
	linkEstimate time.Duration
	flipMargin   float64
	flipConfirm  int
}

func parsePolicy(name string) (methodpart.OverflowPolicy, error) {
	switch name {
	case "block":
		return methodpart.Block, nil
	case "drop-newest":
		return methodpart.DropNewest, nil
	case "drop-oldest":
		return methodpart.DropOldest, nil
	default:
		return methodpart.Block, fmt.Errorf("unknown overflow policy %q", name)
	}
}

func newPublisher(addr string, queue int, policy methodpart.OverflowPolicy, sup supervisionFlags, obs *observability) (*methodpart.Publisher, error) {
	reg, _ := imaging.Builtins()
	pub, err := methodpart.NewPublisher(methodpart.PublisherConfig{
		Addr:                 addr,
		Builtins:             reg,
		FeedbackEvery:        2,
		QueueDepth:           queue,
		OverflowPolicy:       policy,
		HeartbeatInterval:    sup.heartbeat,
		WriteTimeout:         sup.writeTimeout,
		BatchBytes:           sup.batchBytes,
		BatchDelay:           sup.batchDelay,
		LinkEstimateInterval: sup.linkEstimate,
		FlipMargin:           sup.flipMargin,
		FlipConfirmations:    sup.flipConfirm,
		Tracer:               obs.tracer,
	})
	if err != nil {
		return nil, err
	}
	obs.attach(pub, pub.Status)
	return pub, nil
}

func runPublisher(addr string, frames, queue int, policy methodpart.OverflowPolicy, sup supervisionFlags, wait bool, obs *observability) error {
	pub, err := newPublisher(addr, queue, policy, sup, obs)
	if err != nil {
		return err
	}
	defer pub.Close()
	if err := obs.start(); err != nil {
		return err
	}
	fmt.Printf("publisher listening at %s\n", pub.Addr())
	if wait {
		fmt.Println("waiting for a subscriber...")
		for pub.Subscribers() == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if err := publishFrames(pub, frames); err != nil {
		return err
	}
	printChannelMetrics(pub)
	return nil
}

func publishFrames(pub *methodpart.Publisher, frames int) error {
	for i := 0; i < frames; i++ {
		size := 80
		if i >= frames/2 {
			size = 220
		}
		if _, err := pub.Publish(imaging.NewFrame(size, size, int64(i))); err != nil {
			return err
		}
		fmt.Printf("published frame %d (%dx%d)\n", i, size, size)
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	return nil
}

// printChannelMetrics renders one line per live subscription.
func printChannelMetrics(pub *methodpart.Publisher) {
	infos := pub.Subscriptions()
	if len(infos) == 0 {
		return
	}
	fmt.Println("channel metrics (publisher side):")
	for _, info := range infos {
		m := info.Metrics
		fmt.Printf("  %s ch=%q plan=v%d split=%v\n", info.ID, info.Channel, info.PlanVersion, info.SplitIDs)
		fmt.Printf("    published=%d suppressed=%d enqueued=%d dropped=%d queueHW=%d\n",
			m.Published, m.Suppressed, m.Enqueued, m.Dropped, m.QueueHighWater)
		fmt.Printf("    bytesOnWire=%d bytesSaved=%d feedback=%d coalesced=%d planFlips=%d\n",
			m.BytesOnWire, m.BytesSaved, m.FeedbackSent, m.FeedbackCoalesced, m.PlanFlips)
	}
}

func runSubscriber(addr string, display int, sup supervisionFlags, obs *observability) error {
	sub, err := subscribe(addr, display, sup, obs)
	if err != nil {
		return err
	}
	defer sub.Close()
	if err := obs.start(); err != nil {
		return err
	}
	fmt.Printf("subscribed to %s; waiting for frames (ctrl-c to quit)\n", addr)
	<-sub.Done()
	if sup.deadletter {
		printDeadLetters(sub)
	}
	return nil
}

// printDeadLetters renders the subscriber's poison-message quarantine.
func printDeadLetters(sub *methodpart.Subscriber) {
	letters := sub.DeadLetters()
	total := sub.Metrics().DeadLettered
	fmt.Printf("dead letters (%d quarantined, %d retained):\n", total, len(letters))
	for _, dl := range letters {
		fmt.Printf("  %s seq=%d pse=%d class=%s frame=%dB: %s\n",
			dl.When.Format(time.RFC3339Nano), dl.Seq, dl.PSEID, dl.Class, len(dl.Frame), dl.Reason)
	}
}

func subscribe(addr string, display int, sup supervisionFlags, obs *observability) (*methodpart.Subscriber, error) {
	reg, _ := imaging.Builtins()
	sub, err := methodpart.Subscribe(methodpart.SubscriberConfig{
		Addr:                 addr,
		Name:                 "mpdemo",
		Source:               imaging.HandlerSource(display),
		Handler:              imaging.HandlerName,
		CostModel:            "datasize",
		Natives:              []string{"displayImage"},
		Builtins:             reg,
		Environment:          methodpart.DefaultEnvironment(),
		ReconfigEvery:        2,
		DiffThreshold:        0.1,
		Resubscribe:          sup.resubscribe,
		HeartbeatInterval:    sup.heartbeat,
		WriteTimeout:         sup.writeTimeout,
		MaxWork:              sup.maxWork,
		SplitPolicy:          sup.splitPolicy,
		LinkEstimateInterval: sup.linkEstimate,
		FlipMargin:           sup.flipMargin,
		FlipConfirmations:    sup.flipConfirm,
		Tracer:               obs.tracer,
		OnResult: func(r *methodpart.HandlerResult) {
			fmt.Printf("  received message (split PSE %d)\n", r.SplitPSE)
		},
	})
	if err != nil {
		return nil, err
	}
	obs.attach(sub, sub.Status)
	return sub, nil
}

func runBoth(addr string, frames, display, queue int, policy methodpart.OverflowPolicy, sup supervisionFlags, obs *observability) error {
	pub, err := newPublisher(addr, queue, policy, sup, obs)
	if err != nil {
		return err
	}
	defer pub.Close()
	sub, err := subscribe(pub.Addr(), display, sup, obs)
	if err != nil {
		return err
	}
	defer sub.Close()
	if err := obs.start(); err != nil {
		return err
	}
	for pub.Subscribers() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := publishFrames(pub, frames); err != nil {
		return err
	}
	printChannelMetrics(pub)
	sm := sub.Metrics()
	fmt.Printf("channel metrics (subscriber side): processed=%d bytesReceived=%d planFlips=%d\n",
		sm.Published, sm.BytesOnWire, sm.PlanFlips)
	if sm.DecodeFailures+sm.DemodFailures > 0 {
		fmt.Printf("  decodeFailures=%d demodFailures=%d nacksSent=%d deadLettered=%d breakerTrips=%d\n",
			sm.DecodeFailures, sm.DemodFailures, sm.NacksSent, sm.DeadLettered, sm.BreakerTrips)
	}
	if sup.deadletter {
		printDeadLetters(sub)
	}
	fmt.Printf("done: %d messages processed by the subscriber\n", sub.Processed())
	return nil
}
