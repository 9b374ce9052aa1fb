// Package reconfig implements the Runtime Reconfiguration Unit (§2.5): it
// turns profiled PSE statistics into edge capacities under the handler's
// cost model, runs a max-flow/min-cut over the Unit Graph, and emits the
// (near-)optimal partitioning plan as a set of split-flag assignments.
package reconfig

import (
	"fmt"
	"sync/atomic"

	"methodpart/internal/costmodel"
	"methodpart/internal/graph"
	"methodpart/internal/partition"
	"methodpart/internal/wire"
)

// Unit selects partitioning plans for one compiled handler. The unit may
// live with the modulator, the demodulator, or a third party (§2.5); it only
// needs the compiled handler structure and the profiled statistics.
type Unit struct {
	c *partition.Compiled
	// env is the resource environment, held behind an atomic pointer:
	// SetEnvironment is commonly called from measurement loops while a
	// reconfiguration (SelectPlan) runs on the endpoint's goroutine, so
	// unlike the rest of the Unit it must not rely on caller serialization.
	env atomic.Pointer[costmodel.Environment]
	// ProfileAll keeps the profiling flag of every PSE set in emitted
	// plans; otherwise only the flagged split PSEs are profiled.
	ProfileAll bool
	// Policy is the SLO policy that picks the operating point off the
	// Pareto front. The zero value is Balanced: exactly the scalar
	// min-cut selection of releases before the front existed.
	Policy SLOPolicy
	// MaxCandidates caps the convex-cut enumeration behind the front;
	// 0 means DefaultMaxCandidates.
	MaxCandidates int
	// FlipMargin enables plan-flip hysteresis when > 0: a non-incumbent
	// front point must beat the incumbent cut on the policy's primary
	// objective by this fraction (e.g. 0.1 = 10% better) before a flip is
	// even considered. The zero value disables hysteresis entirely,
	// preserving the selection behavior of releases before it existed.
	FlipMargin float64
	// FlipConfirmations is how many consecutive selections the same
	// challenger must keep beating the incumbent by FlipMargin before the
	// plan actually flips (0 means DefaultFlipConfirmations). Only
	// consulted when FlipMargin > 0.
	FlipConfirmations int

	version uint64
	tripped map[int32]bool
	// lastCut is the previously chosen cut, for flip accounting; like
	// version/tripped it relies on caller serialization.
	lastCut []int32
	hasLast bool
	// pendingCut/pendingStreak is the hysteresis state: the challenger cut
	// currently beating the incumbent by the margin, and for how many
	// consecutive selections it has done so. Caller-serialized like lastCut.
	pendingCut    []int32
	pendingStreak int
	// policyFlips counts selections whose chosen cut differed from the
	// previous selection's. Read concurrently by metrics collectors.
	policyFlips atomic.Uint64
	// flipsSuppressed counts selections where the policy preferred a
	// non-incumbent cut but hysteresis held the incumbent (margin not met,
	// or confirmation streak still building). Read concurrently by metrics
	// collectors; feeds methodpart_flips_suppressed_total.
	flipsSuppressed atomic.Uint64

	// lastExplain is the most recent selection's Explanation. It is the one
	// piece of Unit state read from other goroutines (debug listeners,
	// status snapshots) while SelectPlan runs on the endpoint's own
	// goroutine, hence the atomic pointer where the rest of the Unit relies
	// on caller serialization.
	lastExplain atomic.Pointer[Explanation]
}

// Explanation records what one SelectPlan call saw and decided: the
// capacities the max-flow priced (after the breaker overlay), the cut it
// chose, and the version it stamped. It exists so an operator can answer
// "why did my plan flip?" from live state instead of re-deriving the
// min-cut by hand.
type Explanation struct {
	// Version is the plan version the selection produced.
	Version uint64
	// Cut is the chosen split set (sorted).
	Cut []int32
	// CutValue is the min-cut capacity in cost-model units.
	CutValue int64
	// Tripped lists the PSEs priced out by open circuit breakers (sorted).
	Tripped []int32
	// Capacities are the per-PSE edge capacities the max-flow saw, indexed
	// by PSE id — profiled capacities where statistics existed, static
	// estimates otherwise, graph.InfCapacity (or InfCapacity−1 for the raw
	// PSE) where tripped.
	Capacities map[int32]int64
	// Profiled is how many PSEs had live statistics backing their capacity.
	Profiled int
	// Policy is the SLO policy that picked the operating point.
	Policy SLOPolicy
	// Front is the Pareto front of candidate cuts (sorted by bytes, then
	// latency): the non-dominated points plus the pinned balanced
	// min-cut's point. Front[Chosen] is the point Cut was taken from.
	Front []FrontPoint
	// Chosen indexes the front point the policy selected.
	Chosen int
	// Env is the (sanitized) environment the selection priced costs under —
	// with live link estimation this is the measured environment, so an
	// operator can see which link the front believed in.
	Env costmodel.Environment
	// Suppressed reports that this selection's policy preference was
	// overridden by flip hysteresis: the policy preferred a different cut
	// but the incumbent was kept.
	Suppressed bool
	// PendingCut/PendingStreak expose the hysteresis state after this
	// selection: the challenger currently building a confirmation streak
	// (nil when none).
	PendingCut []int32
	// PendingStreak is how many consecutive selections PendingCut has beaten
	// the incumbent by the margin.
	PendingStreak int
	// FlipsSuppressed is the unit's cumulative suppressed-flip count as of
	// this selection.
	FlipsSuppressed uint64
}

// NewUnit creates a reconfiguration unit for the handler in the given
// environment.
func NewUnit(c *partition.Compiled, env costmodel.Environment) *Unit {
	u := &Unit{c: c, ProfileAll: true}
	env = env.Sanitize()
	u.env.Store(&env)
	return u
}

// SetEnvironment updates the resource environment used to weigh costs.
// Safe to call concurrently with SelectPlan; the update is atomic and a
// selection in flight keeps the environment it loaded. Degenerate fields
// (zero, negative, NaN, Inf — possible from an early or broken runtime
// measurement) are replaced with their defaults so a bad sample can never
// poison plan pricing.
func (u *Unit) SetEnvironment(env costmodel.Environment) {
	env = env.Sanitize()
	u.env.Store(&env)
}

// Environment returns the current environment. Safe for concurrent use.
func (u *Unit) Environment() costmodel.Environment { return *u.env.Load() }

// PolicyFlips returns how many selections chose a different cut than the
// selection before them. Safe for concurrent use; feeds the
// methodpart_policy_flips_total metric.
func (u *Unit) PolicyFlips() uint64 { return u.policyFlips.Load() }

// FlipsSuppressed returns how many selections preferred a non-incumbent
// cut but were held to the incumbent by hysteresis. Safe for concurrent
// use; feeds the methodpart_flips_suppressed_total metric.
func (u *Unit) FlipsSuppressed() uint64 { return u.flipsSuppressed.Load() }

// SetTripped replaces the set of PSEs whose circuit breaker is open. A
// tripped PSE's edge becomes (effectively) uncuttable, so the min-cut routes
// around it instead of re-selecting a split point whose continuations keep
// failing. Like the rest of the unit, not safe for concurrent use with
// SelectPlan; callers serialize.
func (u *Unit) SetTripped(ids []int32) {
	if len(ids) == 0 {
		u.tripped = nil
		return
	}
	u.tripped = make(map[int32]bool, len(ids))
	for _, id := range ids {
		u.tripped[id] = true
	}
}

// Tripped reports whether a PSE is currently excluded from the split set.
func (u *Unit) Tripped(id int32) bool { return u.tripped[id] }

// ObserveVersion fast-forwards the unit's version counter to at least v —
// the version of a plan installed behind the unit's back (e.g. a
// breaker-degraded plan the publisher forced locally, reported through
// feedback). Without this, the unit's next selection would carry a version
// the modulator has already passed and be rejected as stale. Like SelectPlan,
// not safe for concurrent use; callers serialize.
func (u *Unit) ObserveVersion(v uint64) {
	if v > u.version {
		u.version = v
	}
}

// SelectPlan computes the best valid partitioning for the profiled
// statistics (stats may be nil or partial; unprofiled PSEs fall back to
// their static estimates). It first runs the scalar max-flow/min-cut under
// the channel's cost model, then builds the Pareto front of candidate
// convex cuts and lets the Unit's SLO policy pick the operating point; the
// Balanced (zero-value) policy takes the scalar min-cut unchanged. It
// returns both the in-memory plan and its wire form.
func (u *Unit) SelectPlan(stats map[int32]costmodel.Stat) (*partition.Plan, *wire.Plan, error) {
	env := u.Environment()
	balCut, balValue, err := u.minCut(stats, env)
	if err != nil {
		return nil, nil, err
	}
	front, balIdx := u.buildFront(stats, env, balCut, balValue)
	chosen := choosePoint(front, balIdx, u.Policy)
	cut := front[chosen].Cut
	if !front[chosen].Balanced {
		// The enumeration guarantees validity by construction; verify
		// anyway and fall back to the proven balanced cut rather than
		// ship a leaking plan if that guarantee is ever broken.
		if err := u.c.ValidateSplitSet(cut); err != nil {
			chosen = balIdx
			cut = balCut
		}
	}
	chosen, suppressed := u.applyHysteresis(front, chosen)
	cut = front[chosen].Cut
	front[chosen].Chosen = true
	if u.hasLast && !partition.EqualCut(u.lastCut, cut) {
		u.policyFlips.Add(1)
	}
	u.lastCut = append(u.lastCut[:0], cut...)
	u.hasLast = true
	u.version++
	u.lastExplain.Store(u.explain(cut, front[chosen].CutValue, stats, env, front, chosen, suppressed))
	var profile []int32
	if u.ProfileAll {
		profile = partition.AllProfileIDs(u.c)
	} else {
		profile = cut
	}
	plan, err := partition.NewPlan(u.c.NumPSEs(), u.version, cut, profile)
	if err != nil {
		return nil, nil, err
	}
	wp := &wire.Plan{
		Handler: u.c.Prog.Name,
		Version: u.version,
		Split:   plan.SplitIDs(),
		Profile: plan.ProfileIDs(),
	}
	return plan, wp, nil
}

// DefaultFlipConfirmations is how many consecutive margin-beating
// selections a challenger needs before the plan flips, when
// Unit.FlipConfirmations is 0.
const DefaultFlipConfirmations = 3

// applyHysteresis dampens plan dithering: once a cut is incumbent, a
// different front point only takes over after beating the incumbent on the
// policy's primary objective by FlipMargin for FlipConfirmations
// consecutive selections. It returns the (possibly overridden) front index
// and whether the policy's preference was suppressed. Disabled (FlipMargin
// <= 0), on the first selection, and when the incumbent has left the front
// (e.g. priced out by a tripped breaker — holding a non-viable plan would
// be worse than any flip), the policy's choice passes through untouched.
func (u *Unit) applyHysteresis(front []FrontPoint, chosen int) (int, bool) {
	reset := func() { u.pendingCut, u.pendingStreak = nil, 0 }
	if u.FlipMargin <= 0 || !u.hasLast {
		reset()
		return chosen, false
	}
	if partition.EqualCut(u.lastCut, front[chosen].Cut) {
		// Policy re-confirmed the incumbent; any challenger streak dies.
		reset()
		return chosen, false
	}
	incumbent := -1
	for i := range front {
		if partition.EqualCut(front[i].Cut, u.lastCut) {
			incumbent = i
			break
		}
	}
	if incumbent < 0 {
		reset()
		return chosen, false
	}
	confirm := u.FlipConfirmations
	if confirm <= 0 {
		confirm = DefaultFlipConfirmations
	}
	// Margin test on the policy's primary objective: the challenger must be
	// better by at least the configured fraction, not merely better.
	beats := policyPrimary(front[chosen], u.Policy) < policyPrimary(front[incumbent], u.Policy)*(1-u.FlipMargin)
	if !beats {
		reset()
		u.flipsSuppressed.Add(1)
		return incumbent, true
	}
	if u.pendingStreak > 0 && partition.EqualCut(u.pendingCut, front[chosen].Cut) {
		u.pendingStreak++
	} else {
		u.pendingCut = append(u.pendingCut[:0], front[chosen].Cut...)
		u.pendingStreak = 1
	}
	if u.pendingStreak >= confirm {
		reset()
		return chosen, false
	}
	u.flipsSuppressed.Add(1)
	return incumbent, true
}

// explain materialises the Explanation for a completed selection. Called
// after u.version is advanced, so the explanation carries the stamped
// version.
func (u *Unit) explain(cut []int32, value int64, stats map[int32]costmodel.Stat, env costmodel.Environment, front []FrontPoint, chosen int, suppressed bool) *Explanation {
	ex := &Explanation{
		Version:         u.version,
		Cut:             append([]int32(nil), cut...),
		CutValue:        value,
		Capacities:      make(map[int32]int64, u.c.NumPSEs()),
		Policy:          u.Policy,
		Front:           front,
		Chosen:          chosen,
		Env:             env,
		Suppressed:      suppressed,
		PendingCut:      append([]int32(nil), u.pendingCut...),
		PendingStreak:   u.pendingStreak,
		FlipsSuppressed: u.flipsSuppressed.Load(),
	}
	for id := int32(0); int(id) < u.c.NumPSEs(); id++ {
		ex.Capacities[id] = u.capacityFor(id, stats, env)
		if st, ok := stats[id]; ok && st.Count > 0 {
			ex.Profiled++
		}
		if u.tripped[id] {
			ex.Tripped = append(ex.Tripped, id)
		}
	}
	ex.Tripped = partition.SortedIDs(ex.Tripped)
	return ex
}

// LastExplanation returns the most recent selection's Explanation, or nil
// before the first SelectPlan. Unlike the rest of the Unit it is safe to
// call from any goroutine; the returned value is a snapshot the caller
// must not mutate.
func (u *Unit) LastExplanation() *Explanation {
	return u.lastExplain.Load()
}

// InitialPlan selects a plan purely from static cost estimates, for use
// before any profile exists (deployment time).
func (u *Unit) InitialPlan() (*partition.Plan, *wire.Plan, error) {
	return u.SelectPlan(nil)
}

// Capacity returns the min-cut capacity the unit would assign to a PSE
// under the current statistics (exported for tests and diagnostics).
func (u *Unit) Capacity(id int32, stats map[int32]costmodel.Stat) int64 {
	return u.capacity(id, stats, u.Environment())
}

func (u *Unit) capacity(id int32, stats map[int32]costmodel.Stat, env costmodel.Environment) int64 {
	pse, ok := u.c.PSE(id)
	if !ok {
		return 0
	}
	if st, ok := stats[id]; ok && st.Count > 0 {
		return u.c.Model.Capacity(st, env)
	}
	return u.c.Model.StaticCapacity(pse.Static)
}

// capacityFor is capacity with the breaker overlay applied: a tripped PSE's
// edge is saturated to infinite capacity so the max-flow never cuts it. The
// raw PSE is special — it is the degradation floor, so when even raw is
// tripped it gets InfCapacity−1: still astronomically expensive (any healthy
// split wins) but keeping the finite-cut invariant that makes "worst case:
// ship raw" always selectable.
func (u *Unit) capacityFor(id int32, stats map[int32]costmodel.Stat, env costmodel.Environment) int64 {
	if u.tripped[id] {
		if id == partition.RawPSEID {
			return graph.InfCapacity - 1
		}
		return graph.InfCapacity
	}
	return u.capacity(id, stats, env)
}

// minCut builds the flow network and extracts the minimal cut restricted to
// PSE edges. The synthetic raw PSE is the source's only outgoing edge, so a
// finite cut always exists (worst case: ship raw events).
func (u *Unit) minCut(stats map[int32]costmodel.Stat, env costmodel.Environment) ([]int32, int64, error) {
	ug := u.c.Analysis.UG
	n := ug.Exit + 1
	source := n
	sink := n + 1
	fn := graph.NewFlowNetwork(n + 2)

	// Raw PSE: source → start node.
	if err := fn.AddEdge(source, ug.Start, u.capacityFor(partition.RawPSEID, stats, env), int(partition.RawPSEID)); err != nil {
		return nil, 0, err
	}
	// UG edges: PSEs get their profiled/static capacity, everything else
	// is uncuttable.
	for _, e := range ug.Edges() {
		if id, ok := u.c.PSEByEdge(e); ok {
			if err := fn.AddEdge(e.From, e.To, u.capacityFor(id, stats, env), int(id)); err != nil {
				return nil, 0, err
			}
			continue
		}
		if err := fn.AddEdge(e.From, e.To, graph.InfCapacity, -1); err != nil {
			return nil, 0, err
		}
	}
	// StopNodes (and the exit) drain to the sink.
	for stop := range u.c.Analysis.Stops {
		if err := fn.AddEdge(stop, sink, graph.InfCapacity, -1); err != nil {
			return nil, 0, err
		}
	}

	cutEdges, value := fn.MinCut(source, sink)
	if value >= graph.InfCapacity {
		return nil, 0, fmt.Errorf("reconfig: no finite cut for %s", u.c.Prog.Name)
	}
	ids := make([]int32, 0, len(cutEdges))
	for _, ce := range cutEdges {
		if ce.ID < 0 {
			return nil, 0, fmt.Errorf("reconfig: min cut crosses non-PSE edge (%d,%d)", ce.From, ce.To)
		}
		ids = append(ids, int32(ce.ID))
	}
	return partition.SortedIDs(ids), value, nil
}
