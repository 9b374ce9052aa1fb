package profileunit

import (
	"math"
	"time"

	"methodpart/internal/costmodel"
)

// Trigger decides when profiling statistics warrant a report to the
// reconfiguration unit. The paper names two policies (§2.5): rate-triggered
// (a certain amount of time/messages has elapsed) and diff-triggered (the
// profiling data for a PSE has changed significantly).
type Trigger interface {
	// ShouldReport inspects the current snapshot and message count and
	// reports whether feedback should be sent now. Implementations may
	// keep state (they assume ShouldReport(true) implies a report).
	ShouldReport(snap map[int32]costmodel.Stat, messages uint64) bool
}

// RateTrigger fires every EveryMessages messages.
type RateTrigger struct {
	// EveryMessages is the reporting period in messages (min 1).
	EveryMessages uint64

	lastReport uint64
}

// ShouldReport implements Trigger.
func (t *RateTrigger) ShouldReport(_ map[int32]costmodel.Stat, messages uint64) bool {
	period := t.EveryMessages
	if period == 0 {
		period = 1
	}
	if messages < t.lastReport {
		// The count fell: its source was replaced by a younger one (a
		// publisher-side subscription migrating into a fresh or younger
		// plan class). Rebase rather than let the uint64 difference wrap
		// into a spurious report.
		t.lastReport = messages
		return false
	}
	if messages-t.lastReport >= period {
		t.lastReport = messages
		return true
	}
	return false
}

// TimeTrigger fires when Every has elapsed since the last report — the
// paper's "send feedback only when a certain amount of time has elapsed".
type TimeTrigger struct {
	// Every is the reporting period.
	Every time.Duration
	// Now supplies the clock (nil = time.Now); injectable for tests and
	// for virtual-time simulations.
	Now func() time.Time

	last time.Time
}

// ShouldReport implements Trigger.
func (t *TimeTrigger) ShouldReport(_ map[int32]costmodel.Stat, _ uint64) bool {
	now := time.Now()
	if t.Now != nil {
		now = t.Now()
	}
	if t.last.IsZero() {
		t.last = now
		return false
	}
	every := t.Every
	if every <= 0 {
		every = time.Second
	}
	if now.Sub(t.last) >= every {
		t.last = now
		return true
	}
	return false
}

// DiffTrigger fires when any PSE statistic moved by more than Threshold
// (relative) since the last report — the paper's "profiling data for one of
// the PSEs has changed significantly". It keeps its own copy of the
// snapshot it last reported, so callers may reuse the map they pass.
type DiffTrigger struct {
	// Threshold is the relative change that triggers a report (e.g. 0.2).
	Threshold float64
	// MinMessages suppresses reports before enough data has accumulated.
	MinMessages uint64

	last map[int32]costmodel.Stat
}

// ShouldReport implements Trigger.
func (t *DiffTrigger) ShouldReport(snap map[int32]costmodel.Stat, messages uint64) bool {
	if messages < t.MinMessages {
		return false
	}
	if t.last == nil {
		t.remember(snap)
		return true
	}
	th := t.Threshold
	if th <= 0 {
		th = 0.2
	}
	for id, st := range snap {
		prev, ok := t.last[id]
		if !ok {
			t.remember(snap)
			return true
		}
		if relDiff(st.Bytes, prev.Bytes) > th ||
			relDiff(st.ModWork, prev.ModWork) > th ||
			relDiff(st.DemodWork, prev.DemodWork) > th ||
			math.Abs(st.Prob-prev.Prob) > th {
			t.remember(snap)
			return true
		}
	}
	return false
}

// remember copies snap into the trigger's baseline, reusing its map.
func (t *DiffTrigger) remember(snap map[int32]costmodel.Stat) {
	if t.last == nil {
		t.last = make(map[int32]costmodel.Stat, len(snap))
	}
	clear(t.last)
	for id, st := range snap {
		t.last[id] = st
	}
}

func relDiff(a, b float64) float64 {
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// EitherTrigger fires when any of its children fires (children still update
// their internal state each call).
type EitherTrigger struct {
	// Children are the combined triggers.
	Children []Trigger
}

// ShouldReport implements Trigger.
func (t *EitherTrigger) ShouldReport(snap map[int32]costmodel.Stat, messages uint64) bool {
	fired := false
	for _, child := range t.Children {
		if child.ShouldReport(snap, messages) {
			fired = true
		}
	}
	return fired
}
