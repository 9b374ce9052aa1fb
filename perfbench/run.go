package main

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"methodpart/internal/costmodel"
	"methodpart/internal/jecho"
)

const (
	// setupReps is how many fresh channels each run sets up and tears down
	// before the measured one; setup_s is the median over all of them.
	setupReps = 20
	// settleEvents are published at settleRate on every fresh channel after
	// its first verified result, so the stream-start adaptation can be
	// measured. The rate leaves a plan round trip room between two events,
	// so the lag counts what the reconfiguration triggers decide, not how
	// busy the host happens to be. The window (0.1 s, about nine times the
	// usual lag) is long enough that a stack that settles rarely ends it
	// under another split, even on a stalled host.
	settleEvents = 100
	settleRate   = 1000
	// waitLimit bounds every wait for deliveries; a delivery missing after
	// it is counted as failed.
	waitLimit = 20 * time.Second
)

// durations splits a run's measuring time: a warm-up, then rounds of a
// paced phase followed by a saturating phase.
type durations struct {
	warm, paced, sat time.Duration
	rounds           int
}

// round is what one round measured.
type round struct {
	p50NS, p90NS float64 // paced phase latency quantiles
	eps          float64 // saturating phase delivered rate
}

// result is what one pass over a workload measured.
type result struct {
	setupNS []int64
	lags    []float64 // adaptation lags, in events (1 = settled at once)
	// unsettled describes each adaptation segment that ended under another
	// split than its input's.
	unsettled []string
	rounds    []round
	latNS     []int64 // every paced latency: result time minus due time
	lateNS    []int64 // every paced event: publish start minus due time
	events    int     // events in the timed window (all rounds)
	shifts    int     // input phase changes inside the timed window

	timed counters // summed over the rounds' timed phases
	// Subscriber-side event and control bytes over the paced phases, and
	// the paced events.
	pacedBytes  uint64
	pacedEvents int
	queueHW     uint64
	lost        uint64
	rss         float64 // median over the rounds of each round's peak RSS
	sinks       []*sink // the last round's

	attempted, failed int64
	problems          []string

	// The last round's paced range and saturating run; the traced pass
	// runs one round and reads its per-event records from these.
	pacedFirst, pacedN int
	satN               int
	satNS              int64

	tr         *tracing // traced pass only
	finalSplit []int32  // the last round's plan at its end
}

// counters are the cumulative counters a timed phase is measured by.
type counters struct {
	pub, sub jecho.ChannelMetrics // publisher-side and subscriber-side sums
	proc     procSample
	modRuns  uint64
	// Traced pass only: wrapped-transport writes, bytes written and bytes
	// read over all connections; ns inside sender and receiver builtins;
	// min-cut runs.
	wrap    [3]int64
	busy    [2]int64
	minCuts int64
}

// read snapshots the counters of c and of the process.
func (c *channel) read() counters {
	var n counters
	n.pub, n.sub, _ = c.sums()
	n.proc = sampleProc()
	n.modRuns = c.pub.ModulatorRuns()
	if c.tr != nil {
		for _, t := range append([]*wrapTransport{c.tr.pub}, c.tr.subs...) {
			writes, written, read := t.counters()
			n.wrap[0] += writes
			n.wrap[1] += written
			n.wrap[2] += read
		}
		n.busy = [2]int64{c.tr.sendBusy.Load(), c.tr.recvBusy.Load()}
		n.minCuts = c.tr.minCuts.Load()
	}
	return n
}

// addDelta adds the counters' growth from a to b.
func (n *counters) addDelta(a, b counters) {
	addMetrics(&n.pub, b.pub, a.pub)
	addMetrics(&n.sub, b.sub, a.sub)
	n.proc.mallocs += b.proc.mallocs - a.proc.mallocs
	n.proc.cpuNS += b.proc.cpuNS - a.proc.cpuNS
	n.proc.gcCPU += b.proc.gcCPU - a.proc.gcCPU
	n.proc.allCPU += b.proc.allCPU - a.proc.allCPU
	n.modRuns += b.modRuns - a.modRuns
	for i := range n.wrap {
		n.wrap[i] += b.wrap[i] - a.wrap[i]
	}
	for i := range n.busy {
		n.busy[i] += b.busy[i] - a.busy[i]
	}
	n.minCuts += b.minCuts - a.minCuts
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// channel is one live publisher with its subscribers and their sinks.
type channel struct {
	w     *workload
	in    *inputs
	tr    *tracing
	pub   *jecho.Publisher
	subs  []*jecho.Subscriber
	sinks []*sink
	first int // index of the first event published
	next  int // index of the next event to publish
}

// published is how many events the channel has published.
func (c *channel) published() int { return c.next - c.first }

var logLines atomic.Int64

// logf prints the first few diagnostics of the stack to stderr; none of
// them counts as a failure by itself.
func logf(format string, args ...any) {
	if logLines.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "stack: "+format+"\n", args...)
	}
}

// open starts a publisher and the workload's subscribers and publishes
// event first; it returns once every subscriber has a verified result, with
// the elapsed time.
func open(w *workload, in *inputs, slots, first int, tr *tracing) (*channel, int64, error) {
	c := &channel{w: w, in: in, tr: tr, first: first, next: first}
	pcfg := jecho.PublisherConfig{Addr: "127.0.0.1:0", Logf: logf}
	var scfgs []jecho.SubscriberConfig
	var sendBusy, recvBusy *atomic.Int64
	if tr != nil {
		pcfg.Transport = tr.pub
		sendBusy, recvBusy = &tr.sendBusy, &tr.recvBusy
	}
	pcfg.Builtins = registry(nil, sendBusy)
	for i := 0; i < w.subs; i++ {
		snk := newSink(in, slots, first)
		c.sinks = append(c.sinks, snk)
		cfg := jecho.SubscriberConfig{
			Name:        fmt.Sprintf("sub-%d", i),
			Source:      w.source,
			Handler:     w.handler,
			CostModel:   costmodel.DataSizeName,
			Natives:     []string{"displayImage"},
			Builtins:    registry(snk, recvBusy),
			Environment: costmodel.DefaultEnvironment(),
			OnResult:    snk.result,
			Logf:        logf,
		}
		if w.reliable {
			cfg.Reliability = jecho.AtLeastOnce
		}
		if tr != nil {
			cfg.Transport = tr.subs[i]
			cfg.Tracer = tr.tracer
		}
		scfgs = append(scfgs, cfg)
	}

	start := clock()
	pub, err := jecho.NewPublisher(pcfg)
	if err != nil {
		return nil, 0, err
	}
	c.pub = pub
	for _, cfg := range scfgs {
		cfg.Addr = pub.Addr()
		sub, err := jecho.Subscribe(cfg)
		if err != nil {
			c.close()
			return nil, 0, err
		}
		c.subs = append(c.subs, sub)
	}
	// A subscription counts in Subscribers() a moment before Publish can
	// reach it; once the publisher has applied its initial plan, it can.
	if !pollUntil(func() bool { return c.registered() == w.subs }) {
		c.close()
		return nil, 0, fmt.Errorf("%d of %d subscriptions registered", c.registered(), w.subs)
	}
	if err := c.publish(); err != nil {
		c.close()
		return nil, 0, err
	}
	if !pollUntil(func() bool { return c.delivered() > first }) {
		c.close()
		return nil, 0, errors.New("no first result")
	}
	return c, clock() - start, nil
}

// registered counts the subscriptions running on a subscriber-sent plan.
func (c *channel) registered() int {
	n := 0
	for _, info := range c.pub.Subscriptions() {
		if info.PlanVersion >= 1 {
			n++
		}
	}
	return n
}

// pollUntil polls cond every 20µs until it holds or waitLimit passes.
// Set-up is timed to the microsecond, so it polls through nanosleep(2) (see
// sleep); a goroutine spinning on runtime.Gosched instead held a processor
// and delayed the stack's network wake-ups by milliseconds.
func pollUntil(cond func() bool) bool {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		sleep(20_000)
	}
	return true
}

// waitDelivered polls until every sink has n results or waitLimit passes.
func (c *channel) waitDelivered(n int) bool {
	deadline := time.Now().Add(waitLimit)
	for c.delivered() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// delivered is the smallest result count over the sinks.
func (c *channel) delivered() int {
	n := -1
	for _, s := range c.sinks {
		if r := int(s.results.Load()); n < 0 || r < n {
			n = r
		}
	}
	return n
}

func (c *channel) publish() error {
	k := c.next
	ev, _ := c.in.event(k)
	n, err := c.pub.Publish(ev)
	c.next++
	if err != nil {
		return fmt.Errorf("publish event %d: %w", k, err)
	}
	if n != c.w.subs {
		return fmt.Errorf("event %d reached %d of %d subscribers", k, n, c.w.subs)
	}
	return nil
}

// paced publishes n events open-loop at rate events/s. Event i is due at
// start + i/rate; onEvent sees each event's index, due time and lateness.
func (c *channel) paced(n, rate int, onEvent func(k int, due, late int64)) error {
	start := clock() + int64(time.Millisecond)
	for i := 0; i < n; i++ {
		due := start + int64(i)*int64(time.Second)/int64(rate)
		if d := due - clock(); d > 0 {
			sleep(d)
		}
		k := c.next
		t0 := clock()
		if err := c.publish(); err != nil {
			return err
		}
		if onEvent != nil {
			onEvent(k, due, t0-due)
		}
		if c.tr != nil && k < len(c.tr.pubReturn) {
			c.tr.pubReturn[k] = clock()
			c.tr.publishNS = append(c.tr.publishNS, c.tr.pubReturn[k]-t0)
		}
	}
	return nil
}

// sleep blocks for d nanoseconds in nanosleep(2). The runtime's timers
// wake a sleeping goroutine on a millisecond grid when the process is idle,
// which at the paced rates would make the generator late by up to a
// millisecond per event; the kernel timer is late by its timer slack
// (about 50µs) instead.
func sleep(d int64) {
	ts := syscall.NsecToTimespec(d)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// saturate publishes back to back for d; under the Block overflow policy
// the send queues' backpressure paces the loop. It returns the event count.
func (c *channel) saturate(d time.Duration) (int, error) {
	end := clock() + int64(d)
	n := 0
	for {
		if n%16 == 0 && clock() >= end {
			return n, nil
		}
		if err := c.publish(); err != nil {
			return n, err
		}
		n++
	}
}

// sums adds up the publisher-side and subscriber-side channel metrics.
func (c *channel) sums() (pub, sub jecho.ChannelMetrics, queueHW uint64) {
	for _, info := range c.pub.Subscriptions() {
		addMetrics(&pub, info.Metrics, jecho.ChannelMetrics{})
		if info.Metrics.QueueHighWater > queueHW {
			queueHW = info.Metrics.QueueHighWater
		}
	}
	for _, s := range c.subs {
		addMetrics(&sub, s.Metrics(), jecho.ChannelMetrics{})
	}
	return pub, sub, queueHW
}

// addMetrics adds plus − minus to dst, field by field.
func addMetrics(dst *jecho.ChannelMetrics, plus, minus jecho.ChannelMetrics) {
	d, p, m := reflect.ValueOf(dst).Elem(), reflect.ValueOf(plus), reflect.ValueOf(minus)
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetUint(d.Field(i).Uint() + p.Field(i).Uint() - m.Field(i).Uint())
	}
}

func lostOf(m jecho.ChannelMetrics) uint64 {
	return m.Dropped + m.DataLoss + m.DeadLettered + m.DecodeFailures + m.DemodFailures + m.ModFailures
}

// verify books the channel's deliveries into r: every subscriber must have
// shown and completed exactly the published events, each verified.
func (c *channel) verify(r *result) {
	if !c.waitDelivered(c.next) {
		r.problem("timed out waiting for %d results", c.published())
	}
	want := c.published()
	for i, s := range c.sinks {
		got, shown := int(s.results.Load())-c.first, int(s.shown.Load())-c.first
		r.attempted += int64(want)
		missing := want - got
		if missing < 0 {
			missing = -missing
		}
		r.failed += int64(missing) + s.bad.Load()
		if err := s.err(); err != nil {
			r.problem("sub-%d: %v", i, err)
		}
		if missing != 0 || shown != got {
			r.problem("sub-%d: %d events published, %d results, %d shown", i, want, got, shown)
		}
		if p := c.subs[i].Processed(); p != uint64(got) {
			r.problem("sub-%d: Processed() = %d, sink saw %d results", i, p, got)
		}
	}
}

// quiescent retries check until it passes twice in a row with no traffic
// between, for identities that only hold once in-flight frames land.
func quiescent(check func() error) error {
	var err error
	for i := 0; i < 100; i++ {
		if err = check(); err == nil {
			time.Sleep(2 * time.Millisecond)
			if err = check(); err == nil {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}

// identities checks the accounting identities of a quiescent channel.
func (c *channel) identities(r *result) {
	if err := quiescent(func() error {
		for _, info := range c.pub.Subscriptions() {
			m := info.Metrics
			if m.Enqueued != m.EventsSent+m.Dropped {
				return fmt.Errorf("%s: Enqueued %d != EventsSent %d + Dropped %d", info.ID, m.Enqueued, m.EventsSent, m.Dropped)
			}
			if info.Reliable && info.StagedSeq != uint64(c.published()) {
				return fmt.Errorf("%s: StagedSeq %d, published %d", info.ID, info.StagedSeq, c.published())
			}
		}
		return nil
	}); err != nil {
		r.problem("%v", err)
	}
	if runs, saved := c.pub.ModulatorRuns(), c.pub.ModulationsSaved(); runs+saved != uint64(c.published()*c.w.subs) {
		r.problem("ModulatorRuns %d + ModulationsSaved %d != %d events x %d subscribers", runs, saved, c.published(), c.w.subs)
	}
	if c.tr == nil {
		return
	}
	if err := quiescent(c.byteIdentity); err != nil {
		r.problem("%v", err)
	}
	if err := quiescent(c.frameCounts); err != nil {
		r.problem("%v", err)
	}
}

// frameCounts checks that each subscription's connection carried exactly
// one event frame per published event at both ends. The traced figures
// send_wait and recv_to_result pair a connection's n-th event frame with
// event n; a replayed, retransmitted or batched frame, or a second
// connection after a resubscribe, would shift that pairing.
func (c *channel) frameCounts() error {
	conns := c.tr.pub.snapshot()
	if len(conns) != c.w.subs {
		return fmt.Errorf("publisher accepted %d connections for %d subscribers", len(conns), c.w.subs)
	}
	for i, conn := range conns {
		if writeAt, _, _ := conn.records(); len(writeAt) != c.published() {
			return fmt.Errorf("publisher connection %d wrote %d event frames for %d events", i, len(writeAt), c.published())
		}
	}
	for i := range c.subs {
		conns := c.tr.subs[i].snapshot()
		if len(conns) != 1 {
			return fmt.Errorf("sub-%d dialled %d connections", i, len(conns))
		}
		if _, readAt, _ := conns[0].records(); len(readAt) != c.published() {
			return fmt.Errorf("sub-%d read %d event frames for %d events", i, len(readAt), c.published())
		}
	}
	return nil
}

// byteIdentity checks that the bytes the wrapped transports carried equal
// the channel metrics' bytes in both directions: what the publisher wrote
// against its metrics, and what each subscriber read and wrote against its
// own. The unmetered first frames (handshake, stream start) are excluded.
func (c *channel) byteIdentity() error {
	var wrote, first int64
	for _, conn := range c.tr.pub.snapshot() {
		wrote += conn.written.Load()
		if c.w.reliable {
			first += conn.firstFrame()
		}
	}
	pub, _, _ := c.sums()
	if m := int64(pub.BytesOnWire + pub.ControlBytesOnWire); wrote-first != m {
		return fmt.Errorf("publisher wrote %d bytes (+%d stream start), metrics count %d", wrote-first, first, m)
	}
	for i, s := range c.subs {
		var moved, hs int64
		for _, conn := range c.tr.subs[i].snapshot() {
			moved += conn.written.Load() + conn.read.Load()
			hs += conn.firstFrame()
		}
		m := s.Metrics()
		if want := int64(m.BytesOnWire + m.ControlBytesOnWire); moved-hs != want {
			return fmt.Errorf("sub-%d moved %d bytes (+%d handshake), metrics count %d", i, moved-hs, hs, want)
		}
	}
	return nil
}

func (c *channel) close() {
	for _, s := range c.subs {
		_ = s.Close() // teardown; the connection error on close is expected
	}
	if c.pub != nil {
		_ = c.pub.Close() // same
	}
}

// adaptLag returns how long events [from, to) took to settle on the split
// want: the 1-based position of the first event from which on every result
// was delivered under want, so 1 means the whole segment ran under it. A
// split that reaches want late, or leaves it again, reads higher. When the
// segment's last event was not delivered under want, the stack never
// settled; the lag is then the whole segment plus one and ok is false.
func adaptLag(s *sink, from, to int, want int32) (lag float64, ok bool) {
	last := from - 1 // the last event delivered under another split
	for k := from; k < to; k++ {
		if s.splitOf(k) != want {
			last = k
		}
	}
	return float64(last - from + 2), last < to-1
}

// addLag books the adaptation lag of events [from, to) of sink i and notes
// a segment that ends under another split than want.
func (r *result) addLag(i int, s *sink, from, to int, want int32) {
	lag, ok := adaptLag(s, from, to, want)
	r.lags = append(r.lags, lag)
	if !ok {
		r.unsettled = append(r.unsettled, fmt.Sprintf("sub-%d: events %d..%d ended under split PSE %d, want %d",
			i, from, to-1, s.splitOf(to-1), want))
	}
}

// checkSettled fails the run when more than one adaptation segment in ten
// ended under another split than its input's. A stack that does not adapt,
// or sticks to an earlier split, leaves nearly all of them unsettled. A
// host that stalls the channel can hold one plan change past its segment's
// end now and then (the longest lag seen on a heavily loaded host was 110
// events, against segments of at least 100 and 200), and the lag booked
// for such a segment already shows in adapt_lag_events.
func (r *result) checkSettled() {
	if n := len(r.unsettled); n*10 > len(r.lags) {
		r.problem("%d of %d adaptation segments ended under another split than their input's; first: %s",
			n, len(r.lags), r.unsettled[0])
	}
}

// runPass sets up setupReps fresh channels, then runs d.rounds rounds, each
// on a channel of its own.
func runPass(w *workload, in *inputs, rate int, d durations, tr *tracing) (*result, error) {
	r := &result{tr: tr}
	for i := 0; i < setupReps; i++ {
		c, setup, err := open(w, in, settleEvents+1, 0, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.setupNS = append(r.setupNS, setup)
		err = c.paced(settleEvents, settleRate, nil)
		c.verify(r)
		c.close()
		if err != nil {
			return nil, err
		}
		for j, s := range c.sinks {
			r.addLag(j, s, 0, c.next, in.settled(0))
		}
	}

	if tr != nil {
		stop := make(chan struct{})
		defer tr.sampleGoroutines(stop).Wait()
		defer close(stop)
	}
	var peaks []float64
	for i := 0; i < d.rounds; i++ {
		// Each round's resident peak is measured from the same floor: the
		// heap the round finds is collected and its free pages returned.
		// The run-wide peak followed whichever round the collector let the
		// heap overshoot most, and read up to half again as much in one
		// run as in the next.
		debug.FreeOSMemory()
		rss := startRSSPeak()
		err := r.runRound(w, in, in.roundStart(i), rate, d)
		peak, rssErr := rss.finish()
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if rssErr != nil {
			return nil, fmt.Errorf("peak RSS: %w", rssErr)
		}
		peaks = append(peaks, peak)
	}
	r.checkSettled()
	r.rss = medianFloat(peaks)
	return r, nil
}

// runRound sets up a fresh channel, warms it up, runs one paced and one
// saturating phase on it, checks it and tears it down. Each round has a
// channel of its own: when all rounds shared one, they saturated near one
// rate, and that rate differed by up to a fifth between otherwise equal
// runs. The paced
// latencies run from each event's due time to its result at each
// subscriber; the saturated rate from the first publish to the last result.
//
// On phased workloads the warm-up and the paced phase each end where a
// pair of phases does, so every paced phase holds both sizes in the same
// share whatever the seed.
func (r *result) runRound(w *workload, in *inputs, first, rate int, d durations) error {
	tr := r.tr
	warmN := int(d.warm.Seconds() * float64(rate))
	pacedN := int(d.paced.Seconds() * float64(rate))
	slots := pacedN + 3*w.phaseMax // room for the alignment
	if tr != nil {
		tr.reset()
		tr.pubReturn = make([]int64, first+1+warmN+slots)
	}
	c, setup, err := open(w, in, slots, first, tr)
	if err != nil {
		return err
	}
	defer c.close()
	r.setupNS = append(r.setupNS, setup)
	if err := c.paced(in.alignUp(c.next+warmN)-c.next, rate, nil); err != nil {
		return err
	}
	if !c.waitDelivered(c.next) {
		r.problem("warm-up results missing")
	}

	before := c.read()
	r.pacedFirst = c.next
	r.pacedN = in.alignUp(c.next+pacedN) - c.next
	for _, s := range c.sinks {
		s.base.Store(int64(r.pacedFirst))
	}
	due := make([]int64, r.pacedN)
	nextSnap := 0
	if tr != nil {
		tr.publishNS = tr.publishNS[:0]
	}
	err = c.paced(r.pacedN, rate, func(k int, dueAt, late int64) {
		due[k-r.pacedFirst] = dueAt
		r.lateNS = append(r.lateNS, late)
		if tr != nil && k >= nextSnap && len(tr.snaps) < 64 {
			if in.ends != nil {
				nextSnap = in.phaseStart(in.phase(k) + 1)
			} else {
				nextSnap = k + 500
			}
			tr.snaps = append(tr.snaps, c.subs[0].Stats())
		}
	})
	if err != nil {
		return err
	}
	if !c.waitDelivered(c.next) {
		r.problem("paced results missing")
	}
	var lat []int64
	for j, s := range c.sinks {
		for i, at := range s.arrive[:r.pacedN] {
			lat = append(lat, at-due[i])
		}
		if in.ends != nil {
			for p := in.phase(r.pacedFirst); in.ends[p] <= c.next; p++ {
				r.addLag(j, s, in.phaseStart(p), in.ends[p], in.settled(p))
			}
		}
	}
	_, sub, _ := c.sums()
	r.pacedBytes += sub.BytesOnWire + sub.ControlBytesOnWire - before.sub.BytesOnWire - before.sub.ControlBytesOnWire
	r.pacedEvents += r.pacedN
	r.latNS = append(r.latNS, lat...)
	rd := round{p50NS: float64(percentile(lat, 0.5)), p90NS: float64(percentile(lat, 0.9))}

	start := clock()
	if r.satN, err = c.saturate(d.sat); err != nil {
		return err
	}
	if !c.waitDelivered(c.next) {
		r.problem("saturating results missing")
	}
	var last int64
	for _, s := range c.sinks {
		last = max(last, s.lastNS.Load())
	}
	r.satNS = last - start
	rd.eps = float64(r.satN) / (float64(r.satNS) / 1e9)
	r.rounds = append(r.rounds, rd)
	r.events += c.next - r.pacedFirst
	r.shifts += in.phase(c.next-1) - in.phase(r.pacedFirst)
	r.timed.addDelta(before, c.read())

	c.verify(r)
	c.identities(r)
	pub, sub, queueHW := c.sums()
	r.queueHW = max(r.queueHW, queueHW)
	r.lost += lostOf(pub) + lostOf(sub)
	r.sinks = c.sinks
	if infos := c.pub.Subscriptions(); len(infos) > 0 {
		r.finalSplit = infos[0].SplitIDs
	}
	return nil
}

// wireBytesPerEvent is the bytes both directions carried per event in the
// paced phases, from the subscribers' channel metrics (each counts what it
// received and the control frames it sent). Under saturation the events
// queued behind a plan change ship under the old split, so their count, and
// the bytes, would follow the host's speed rather than the protocol.
func (r *result) wireBytesPerEvent() float64 {
	return float64(r.pacedBytes) / float64(r.pacedEvents)
}
