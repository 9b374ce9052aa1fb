// Package linkest estimates the live characteristics of one
// subscription's link — round-trip time and effective bandwidth — so the
// reconfiguration unit can price partitioning plans against the network
// that actually exists instead of the one configured at deployment time
// (§4's environment, refined at runtime).
//
// RTT comes from heartbeat echo timing: the endpoint records the send time
// of each heartbeat probe it emits and, when the peer reflects the probe's
// Seq back, subtracts it on its own clock — no clock synchronisation
// required. Effective bandwidth comes from the endpoint's own bytes-on-wire
// counter sampled over wall time: event bytes moved divided by the elapsed
// interval, skipping intervals too quiet to observe the link (an idle
// channel says nothing about capacity, so the estimate holds rather than
// decaying toward zero).
//
// Both signals feed exponentially weighted moving averages with a
// configurable half-life, behind a warm-up gate: until an axis has seen
// MinSamples samples, Environment keeps the deployment-time value for that
// axis, so a single early (possibly degenerate) measurement never swings
// the Pareto front.
package linkest

import (
	"math"
	"sync"
	"time"

	"methodpart/internal/costmodel"
)

// Defaults for the zero-value Config.
const (
	// DefaultHalfLife is the EWMA half-life: a step change in the link
	// closes half its gap to the estimate per half-life of samples.
	DefaultHalfLife = 5 * time.Second
	// DefaultMinSamples is the warm-up gate per axis.
	DefaultMinSamples = 3
	// DefaultMinBytes is the least event-byte delta a bandwidth interval
	// must move to count as an observation of the link.
	DefaultMinBytes = 4096
	// maxProbesInFlight bounds the probe table. A peer that never echoes
	// (echoes lost) would otherwise grow it one entry per heartbeat
	// forever.
	maxProbesInFlight = 64
)

// Config tunes one estimator. The zero value uses the defaults above.
type Config struct {
	// HalfLife is the EWMA half-life for both axes (0 = DefaultHalfLife).
	HalfLife time.Duration
	// MinSamples is the warm-up gate: an axis only overrides the base
	// environment once it has this many samples (0 = DefaultMinSamples).
	MinSamples int
	// MinBytes is the smallest byte delta a bandwidth interval must carry
	// to produce a sample (0 = DefaultMinBytes; the gate keeps idle
	// intervals from reading as a dead link).
	MinBytes uint64
	// Now is the clock (nil = time.Now). Injectable for tests and for the
	// virtual-time bench harness.
	Now func() time.Time
}

// Snapshot is one estimator's public state: the smoothed estimates and how
// many samples back each, for /debug/split and metrics.
type Snapshot struct {
	// RTTMillis is the smoothed round-trip time (0 before any echo).
	RTTMillis float64
	// BandwidthBytesPerMS is the smoothed effective bandwidth (0 before
	// any interval qualified).
	BandwidthBytesPerMS float64
	// RTTSamples / BandwidthSamples count the samples behind each axis.
	RTTSamples, BandwidthSamples uint64
	// RTTWarm / BandwidthWarm report whether each axis has cleared the
	// warm-up gate and is overriding the base environment.
	RTTWarm, BandwidthWarm bool
}

// ewma is one half-life-parameterised moving average. The weight of a new
// sample depends on the time elapsed since the previous one: alpha =
// 1 − 0.5^(dt/halfLife), so bursts of samples don't converge faster in
// sample count than the half-life promises in wall time, and sparse
// samples still move the estimate meaningfully.
type ewma struct {
	value   float64
	samples uint64
	last    time.Time
}

func (e *ewma) observe(x float64, now time.Time, halfLife time.Duration) {
	if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		return // degenerate sample; never let it poison the estimate
	}
	if e.samples == 0 {
		e.value = x
	} else {
		dt := now.Sub(e.last)
		if dt <= 0 {
			dt = time.Millisecond
		}
		alpha := 1 - math.Pow(0.5, float64(dt)/float64(halfLife))
		e.value += alpha * (x - e.value)
	}
	e.samples++
	e.last = now
}

// Estimator measures one subscription's link. Safe for concurrent use: the
// send path records probes and byte counts while the read path consumes
// echoes and the publish loop snapshots.
type Estimator struct {
	mu  sync.Mutex
	cfg Config

	rtt ewma
	bw  ewma

	// probes maps in-flight heartbeat Seq to send time. Bounded: entries
	// older than maxProbesInFlight probes are dropped (their echoes, if
	// they ever arrive, are stale anyway).
	probes map[uint64]time.Time

	// lastBytes/lastAt bound the previous bandwidth sampling interval.
	lastBytes uint64
	lastAt    time.Time
	haveBytes bool
}

// New builds an estimator.
func New(cfg Config) *Estimator {
	if cfg.HalfLife <= 0 {
		cfg.HalfLife = DefaultHalfLife
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	if cfg.MinBytes == 0 {
		cfg.MinBytes = DefaultMinBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Estimator{cfg: cfg, probes: make(map[uint64]time.Time)}
}

// Probe records the send time of heartbeat probe seq. Call just before the
// probe leaves; the matching Echo closes the sample.
func (e *Estimator) Probe(seq uint64) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.probes[seq] = now
	// Drop the oldest entries once the table overflows. Seqs increase
	// monotonically per connection, so "oldest" is "smallest".
	for len(e.probes) > maxProbesInFlight {
		oldest := seq
		for s := range e.probes {
			if s < oldest {
				oldest = s
			}
		}
		delete(e.probes, oldest)
	}
}

// Echo consumes the peer's reflection of probe seq, converting it into one
// RTT sample. Unknown (expired or duplicate) echoes are ignored.
func (e *Estimator) Echo(seq uint64) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	sent, ok := e.probes[seq]
	if !ok {
		return
	}
	delete(e.probes, seq)
	e.observeRTTLocked(now.Sub(sent), now)
}

// ObserveRTT feeds one round-trip sample directly — for callers that
// measure the round trip themselves (the virtual-time bench harness).
func (e *Estimator) ObserveRTT(rtt time.Duration) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.observeRTTLocked(rtt, now)
}

func (e *Estimator) observeRTTLocked(rtt time.Duration, now time.Time) {
	if rtt < 0 {
		return
	}
	e.rtt.observe(float64(rtt)/float64(time.Millisecond), now, e.cfg.HalfLife)
}

// ObserveBytes samples the cumulative event-byte counter. The delta since
// the previous call over the elapsed time is one effective-bandwidth
// sample — skipped when fewer than MinBytes moved, because an idle link is
// unobservable, not dead. The first call only anchors the interval.
func (e *Estimator) ObserveBytes(totalBytes uint64) {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.haveBytes {
		e.haveBytes = true
		e.lastBytes, e.lastAt = totalBytes, now
		return
	}
	delta := totalBytes - e.lastBytes
	elapsed := now.Sub(e.lastAt)
	if totalBytes < e.lastBytes {
		// Counter went backwards (endpoint reset); re-anchor.
		e.lastBytes, e.lastAt = totalBytes, now
		return
	}
	if delta < e.cfg.MinBytes {
		// Too quiet to observe the link. Keep lastBytes/lastAt so a slow
		// trickle eventually accumulates into a qualifying interval.
		return
	}
	if elapsed <= 0 {
		return
	}
	e.lastBytes, e.lastAt = totalBytes, now
	e.bw.observe(float64(delta)/(float64(elapsed)/float64(time.Millisecond)), now, e.cfg.HalfLife)
}

// Snapshot returns the current estimates and sample counts.
func (e *Estimator) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Snapshot{
		RTTMillis:           e.rtt.value,
		BandwidthBytesPerMS: e.bw.value,
		RTTSamples:          e.rtt.samples,
		BandwidthSamples:    e.bw.samples,
		RTTWarm:             e.rtt.samples >= uint64(e.cfg.MinSamples),
		BandwidthWarm:       e.bw.samples >= uint64(e.cfg.MinSamples),
	}
}

// Environment overlays the measured axes onto the base (deployment-time)
// environment: LatencyMS becomes RTT/2 and Bandwidth the effective
// estimate, each only once its axis has cleared the warm-up gate. The
// boolean reports whether any axis overrode the base — callers can skip
// publishing an unchanged environment.
func (e *Estimator) Environment(base costmodel.Environment) (costmodel.Environment, bool) {
	snap := e.Snapshot()
	measured := false
	if snap.RTTWarm {
		base.LatencyMS = snap.RTTMillis / 2
		measured = true
	}
	if snap.BandwidthWarm {
		base.Bandwidth = snap.BandwidthBytesPerMS
		measured = true
	}
	return base.Sanitize(), measured
}

// Reset discards all estimator state — in-flight probes, both EWMAs and
// the bandwidth interval anchor. Called on resubscribe: the fresh session
// may sit on a different path, and pre-disconnect samples must not keep
// pricing its plans.
func (e *Estimator) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rtt = ewma{}
	e.bw = ewma{}
	e.probes = make(map[uint64]time.Time)
	e.lastBytes, e.lastAt, e.haveBytes = 0, time.Time{}, false
}
