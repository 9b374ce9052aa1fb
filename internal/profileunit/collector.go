// Package profileunit implements the Runtime Profiling Unit (§2.5): it
// aggregates the per-PSE measurements emitted by the instrumented
// modulator/demodulator pair (continuation sizes, modulator-side work,
// demodulator-side work, path probabilities) and decides — via rate- or
// diff-triggers — when the statistics have changed enough to ship feedback
// to the Reconfiguration Unit.
package profileunit

import (
	"math"
	"sync"

	"methodpart/internal/costmodel"
	"methodpart/internal/partition"
	"methodpart/internal/wire"
)

// DefaultAlpha is the EWMA weight given to each new observation.
const DefaultAlpha = 0.2

// ewma is an exponentially weighted moving average.
type ewma struct {
	v   float64
	set bool
}

func (e *ewma) observe(x, alpha float64) {
	if !e.set {
		e.v = x
		e.set = true
		return
	}
	e.v += alpha * (x - e.v)
}

type pseAgg struct {
	crossings uint64
	bytes     ewma
	modWork   ewma
	demodWork ewma
	splits    uint64
	failures  uint64
	// crossSeen latches the crossings count at the previous SplitAt, so
	// SplitAt can tell whether Cross is observing this edge (profiled and
	// sampled) or the split observation is the only one this edge gets.
	crossSeen uint64
}

// Collector aggregates profiling events. It implements both
// partition.SenderProbe and partition.ReceiverProbe so it can serve a
// co-simulated pair directly, or either half alone with the two sides
// merged through wire.Feedback messages.
type Collector struct {
	mu       sync.Mutex
	alpha    float64
	numPSEs  int
	messages uint64
	// completed counts Done events; in a split deployment (sender and
	// receiver profiling into separate collectors) it substitutes for the
	// sender-side message count as the path-probability denominator.
	completed uint64
	rawBytes  ewma
	total     ewma // total work per message (mod + demod)
	pses      []pseAgg
}

var (
	_ partition.SenderProbe   = (*Collector)(nil)
	_ partition.ReceiverProbe = (*Collector)(nil)
)

// NewCollector creates a collector for a handler with numPSEs PSEs
// (including the raw PSE).
func NewCollector(numPSEs int) *Collector {
	return &Collector{
		alpha:   DefaultAlpha,
		numPSEs: numPSEs,
		pses:    make([]pseAgg, numPSEs),
	}
}

// SetAlpha overrides the EWMA weight (0 < alpha <= 1).
func (c *Collector) SetAlpha(alpha float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if alpha > 0 && alpha <= 1 {
		c.alpha = alpha
	}
}

// Message implements partition.SenderProbe.
func (c *Collector) Message(rawBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.messages++
	c.rawBytes.observe(float64(rawBytes), c.alpha)
}

// Cross implements partition.SenderProbe.
func (c *Collector) Cross(id int32, workAt, contBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(id) >= c.numPSEs || id < 0 {
		return
	}
	a := &c.pses[id]
	a.crossings++
	a.bytes.observe(float64(contBytes), c.alpha)
	a.modWork.observe(float64(workAt), c.alpha)
}

// SplitAt implements partition.SenderProbe. Besides counting the split it
// keeps the edge's statistics fresh: when the active split edge is not
// profiled (or the message was not sampled), Cross never fires for it, and
// without the observation here its count and bytes/modWork EWMAs would
// freeze at whatever profiling saw before the split flag flipped — starving
// the reconfiguration unit of exactly the edge it most needs current data
// for. When Cross *is* observing the edge (crossings advanced since the
// last SplitAt), the observation is skipped so no message is counted twice.
func (c *Collector) SplitAt(id int32, modWork, contBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || int(id) >= c.numPSEs {
		return
	}
	a := &c.pses[id]
	a.splits++
	if a.crossings == a.crossSeen {
		a.crossings++
		a.bytes.observe(float64(contBytes), c.alpha)
		a.modWork.observe(float64(modWork), c.alpha)
	}
	a.crossSeen = a.crossings
}

// Fault records a modulation/demodulation failure attributed to the given
// PSE (the split edge the failing message was produced at). Failure counts
// ride the same Feedback path as the cost statistics, so the
// reconfiguration unit sees them wherever it lives.
func (c *Collector) Fault(id int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || int(id) >= c.numPSEs {
		return
	}
	c.pses[id].failures++
}

// Done implements partition.ReceiverProbe.
func (c *Collector) Done(splitPSE int32, modWork, demodWork int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completed++
	c.total.observe(float64(modWork+demodWork), c.alpha)
	if splitPSE >= 0 && int(splitPSE) < c.numPSEs {
		c.pses[splitPSE].demodWork.observe(float64(demodWork), c.alpha)
	}
}

// Messages returns the number of messages observed at the sender side.
func (c *Collector) Messages() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.messages
}

// Snapshot derives the per-PSE statistics consumed by the cost models. The
// demodulator-side work of a PSE that is not currently split is estimated
// as totalWork − modWork(PSE), as observed profiles allow (§4.2).
func (c *Collector) Snapshot() map[int32]costmodel.Stat {
	return c.SnapshotInto(make(map[int32]costmodel.Stat, c.numPSEs))
}

// SnapshotInto is Snapshot written into out, which is cleared first (and
// allocated when nil), so a caller snapshotting every message can reuse one
// map. It returns out.
func (c *Collector) SnapshotInto(out map[int32]costmodel.Stat) map[int32]costmodel.Stat {
	if out == nil {
		out = make(map[int32]costmodel.Stat, c.numPSEs)
	}
	clear(out)
	c.mu.Lock()
	defer c.mu.Unlock()
	denom := c.messages
	if c.completed > denom {
		denom = c.completed
	}
	for id := 0; id < c.numPSEs; id++ {
		a := &c.pses[id]
		st := costmodel.Stat{Count: a.crossings, Failures: a.failures}
		if int32(id) == partition.RawPSEID {
			// The raw PSE is crossed (virtually) by every message. Only
			// the sender observes raw event sizes; a receiver-side
			// collector still contributes its total-work view (Bytes
			// stays 0 and is filled in by Merge), but a collector that
			// has observed nothing at all emits no entry.
			switch {
			case a.bytes.set:
				st.Bytes = a.bytes.v
			case c.rawBytes.set:
				st.Bytes = c.rawBytes.v
			default:
				if c.completed == 0 && a.failures == 0 {
					continue
				}
			}
			st.Count = denom
			st.Prob = 1
			st.ModWork = 0
			st.DemodWork = c.total.v
			out[int32(id)] = st
			continue
		}
		if a.crossings == 0 && a.failures == 0 {
			continue
		}
		if denom > 0 {
			st.Prob = float64(a.crossings) / float64(denom)
			if st.Prob > 1 {
				st.Prob = 1
			}
		}
		st.Bytes = a.bytes.v
		st.ModWork = a.modWork.v
		if a.demodWork.set {
			st.DemodWork = a.demodWork.v
		} else if c.total.set {
			st.DemodWork = math.Max(0, c.total.v-a.modWork.v)
		}
		out[int32(id)] = st
	}
	return out
}

// ToWire converts a snapshot into a Feedback message for the handler.
func (c *Collector) ToWire(handler string) *wire.Feedback {
	snap := c.Snapshot()
	fb := &wire.Feedback{Handler: handler}
	for id := 0; id < c.numPSEs; id++ {
		st, ok := snap[int32(id)]
		if !ok {
			continue
		}
		fb.Stats = append(fb.Stats, wire.PSEStat{
			ID:        int32(id),
			Count:     st.Count,
			Bytes:     st.Bytes,
			ModWork:   st.ModWork,
			DemodWork: st.DemodWork,
			Prob:      st.Prob,
			Failures:  st.Failures,
		})
	}
	return fb
}

// FromWire converts a Feedback message back into model statistics.
func FromWire(fb *wire.Feedback) map[int32]costmodel.Stat {
	out := make(map[int32]costmodel.Stat, len(fb.Stats))
	for _, s := range fb.Stats {
		out[s.ID] = costmodel.Stat{
			Count:     s.Count,
			Bytes:     s.Bytes,
			ModWork:   s.ModWork,
			DemodWork: s.DemodWork,
			Prob:      s.Prob,
			Failures:  s.Failures,
		}
	}
	return out
}

// Merge joins sender-side and receiver-side profiling views when the two
// halves profile into separate collectors. PSEs upstream of the current cut
// are observed at the sender, downstream ones at the receiver, and each
// side knows things the other cannot (the sender sees raw event sizes, the
// receiver sees completion work). Per PSE the fresher view (higher
// observation count — the stale side stops crossing a PSE once the cut
// moves past it) provides the base, with field-wise fill-in: unobserved
// byte sizes come from the other side, and the receiver's demodulator-work
// observation always wins.
func Merge(sender, receiver map[int32]costmodel.Stat) map[int32]costmodel.Stat {
	return MergeInto(make(map[int32]costmodel.Stat, len(sender)+len(receiver)), sender, receiver)
}

// MergeInto is Merge written into out, which is cleared first (and
// allocated when nil) and must alias neither input. It returns out.
func MergeInto(out, sender, receiver map[int32]costmodel.Stat) map[int32]costmodel.Stat {
	if out == nil {
		out = make(map[int32]costmodel.Stat, len(sender)+len(receiver))
	}
	clear(out)
	for id, st := range sender {
		out[id] = st
	}
	for id, r := range receiver {
		s, ok := out[id]
		if !ok {
			out[id] = r
			continue
		}
		fresh, stale := r, s
		if s.Count > r.Count {
			fresh, stale = s, r
		}
		m := fresh
		if m.Bytes == 0 && stale.Bytes > 0 {
			m.Bytes = stale.Bytes
		}
		if r.DemodWork > 0 {
			m.DemodWork = r.DemodWork
		} else if m.DemodWork == 0 && stale.DemodWork > 0 {
			m.DemodWork = stale.DemodWork
		}
		// Failures are counted by distinct fault populations (the sender
		// sees modulation faults, the receiver demodulation faults), so
		// the merged view sums rather than picks the fresher side.
		m.Failures = s.Failures + r.Failures
		out[id] = m
	}
	return out
}
