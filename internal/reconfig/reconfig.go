// Package reconfig implements the Runtime Reconfiguration Unit (§2.5): it
// turns profiled PSE statistics into edge capacities under the handler's
// cost model, takes the min-cut over the handler's precomputed convex cuts
// (a max-flow over the Unit Graph when that enumeration is truncated), and
// emits the (near-)optimal partitioning plan as a set of split-flag
// assignments.
package reconfig

import (
	"fmt"
	"slices"
	"sync"
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
	// tripped flags, per PSE id, the PSEs whose breaker is open; nil until
	// the first non-empty SetTripped.
	tripped []bool
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

	// work is the buffer the running selection prices into; caller-
	// serialized. last is the most recent completed selection, the one
	// piece of Unit state read from other goroutines (debug listeners,
	// status snapshots) while SelectPlan runs on the endpoint's own
	// goroutine: a selection fills work, then swaps it with last under
	// lastMu, so a reader never sees a half-written record and the two
	// buffers are reused with no allocation.
	work   *selection
	lastMu sync.Mutex
	last   *selection
}

// selection is what one SelectPlan call priced and decided, kept in
// unit-owned buffers that the next selection but one reuses.
// LastExplanation materializes an Explanation from it on read.
type selection struct {
	version  uint64
	env      costmodel.Environment
	policy   SLOPolicy
	complete bool
	// caps and vecs are the per-PSE prices (capacity with the breaker
	// overlay applied, and cost vector), indexed by PSE id; tripped is the
	// breaker overlay they were priced under.
	caps     []int64
	vecs     []costmodel.Vector
	tripped  []bool
	profiled int
	// values and cutVecs are the per-cut sums of caps and vecs over the
	// priced cut list: the table's cuts, plus the max-flow cut when a
	// truncated enumeration missed it.
	values  []int64
	cutVecs []costmodel.Vector
	// points are the cuts not priced out by a tripped PSE; front is the
	// sorted Pareto front taken from them.
	points []FrontPoint
	front  []FrontPoint
	chosen int
	// suppressed, pendingCut, pendingStreak and flipsSuppressed are the
	// hysteresis outcome and state after this selection.
	suppressed      bool
	pendingCut      []int32
	pendingStreak   int
	flipsSuppressed uint64
}

// Explanation records what one SelectPlan call saw and decided: the
// capacities it priced (after the breaker overlay), the cut it chose, and
// the version it stamped. It exists so an operator can answer
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
	// Capacities are the per-PSE edge capacities the selection priced,
	// indexed by PSE id — profiled capacities where statistics existed, static
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
	// Complete reports that the cut enumeration was complete, so the
	// balanced point is the cheapest enumerated cut; false means the
	// enumeration stopped at MaxCandidates and a max-flow priced the
	// balanced point.
	Complete bool
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
// Ids outside the handler's PSE table price nothing and are ignored.
func (u *Unit) SetTripped(ids []int32) {
	if u.tripped == nil {
		if len(ids) == 0 {
			return
		}
		u.tripped = make([]bool, u.c.NumPSEs())
	}
	clear(u.tripped)
	for _, id := range ids {
		if id >= 0 && int(id) < len(u.tripped) {
			u.tripped[id] = true
		}
	}
}

// Tripped reports whether a PSE is currently excluded from the split set.
func (u *Unit) Tripped(id int32) bool {
	return id >= 0 && int(id) < len(u.tripped) && u.tripped[id]
}

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
// their static estimates). It prices every PSE once under the channel's
// cost model and every candidate convex cut of the handler's cached cut
// table as the sum over its PSEs; the balanced point is the scalar
// min-cut — the cheapest cut when the enumeration is complete, a
// max-flow's otherwise. It then builds the Pareto front and lets the
// Unit's SLO policy pick the operating point; the Balanced (zero-value)
// policy takes the scalar min-cut unchanged. It returns both the in-memory
// plan and its wire form. The wire plan's Split and Profile slices are
// shared with the cut's cached plan template: callers must not modify
// them.
func (u *Unit) SelectPlan(stats map[int32]costmodel.Stat) (*partition.Plan, *wire.Plan, error) {
	t := u.c.CutTable(u.maxCandidates())
	sel := u.work
	if sel == nil {
		sel = &selection{}
	}
	sel.env = u.Environment()
	sel.policy = u.Policy
	sel.complete = t.Complete
	u.price(sel, stats)
	cuts := t.Cuts
	priceCuts(sel, cuts)
	var bal int
	if t.Complete {
		// Every convex cut is listed, so the min-cut is the cheapest.
		bal = argmin(sel.values)
	} else {
		// A truncated enumeration may miss the min-cut: take it from the
		// max-flow, pricing it as one more cut when it is not listed.
		balCut, balValue, err := u.minCut(sel.caps)
		if err != nil {
			return nil, nil, err
		}
		bal = slices.IndexFunc(cuts, func(c []int32) bool { return partition.EqualCut(c, balCut) })
		if bal < 0 {
			// The full slice expression makes append copy rather than
			// write into the shared table.
			cuts = append(cuts[:len(cuts):len(cuts)], balCut)
			bal = len(cuts) - 1
			sel.values = append(sel.values, 0)
			sel.cutVecs = append(sel.cutVecs, sumRow(sel.vecs, balCut))
		}
		sel.values[bal] = balValue
	}
	balIdx := buildFront(sel, cuts, bal)
	front := sel.front
	chosen := choosePoint(front, balIdx, u.Policy)
	if !front[chosen].Balanced && !t.Valid(front[chosen].idx) {
		// The enumeration guarantees validity by construction; verify
		// anyway (once per cut) and fall back to the proven balanced cut
		// rather than ship a leaking plan if that guarantee is ever broken.
		chosen = balIdx
	}
	chosen, suppressed := u.applyHysteresis(front, chosen)
	front[chosen].Chosen = true
	cp := front[chosen]
	if u.hasLast && !partition.EqualCut(u.lastCut, cp.Cut) {
		u.policyFlips.Add(1)
	}
	u.lastCut = append(u.lastCut[:0], cp.Cut...)
	u.hasLast = true
	u.version++

	sel.version = u.version
	sel.chosen = chosen
	sel.suppressed = suppressed
	sel.pendingCut = append(sel.pendingCut[:0], u.pendingCut...)
	sel.pendingStreak = u.pendingStreak
	sel.flipsSuppressed = u.flipsSuppressed.Load()
	u.lastMu.Lock()
	u.work, u.last = u.last, sel
	u.lastMu.Unlock()

	var tmpl *partition.Plan
	var err error
	if cp.idx < len(t.Cuts) {
		tmpl, err = t.Plan(cp.idx, u.ProfileAll)
	} else {
		profile := cp.Cut
		if u.ProfileAll {
			profile = partition.AllProfileIDs(u.c)
		}
		tmpl, err = partition.NewPlan(u.c.NumPSEs(), 0, cp.Cut, profile)
	}
	if err != nil {
		return nil, nil, err
	}
	plan := tmpl.WithVersion(u.version)
	wp := &wire.Plan{
		Handler: u.c.Prog.Name,
		Version: u.version,
		Split:   tmpl.SplitIDs(),
		Profile: tmpl.ProfileIDs(),
	}
	return plan, wp, nil
}

func (u *Unit) maxCandidates() int {
	if u.MaxCandidates <= 0 {
		return DefaultMaxCandidates
	}
	return u.MaxCandidates
}

// price writes every PSE's capacity (breaker overlay applied) and cost
// vector into sel, reusing its buffers.
func (u *Unit) price(sel *selection, stats map[int32]costmodel.Stat) {
	n := u.c.NumPSEs()
	sel.caps = slices.Grow(sel.caps[:0], n)[:n]
	sel.vecs = slices.Grow(sel.vecs[:0], n)[:n]
	sel.tripped = slices.Grow(sel.tripped[:0], n)[:n]
	sel.profiled = 0
	for i := range sel.caps {
		id := int32(i)
		pse := &u.c.PSEs[i]
		if st, ok := stats[id]; ok && st.Count > 0 {
			sel.caps[i] = u.c.Model.Capacity(st, sel.env)
			sel.vecs[i] = costmodel.PSEVector(st, sel.env)
			sel.profiled++
		} else {
			sel.caps[i] = u.c.Model.StaticCapacity(pse.Static)
			sel.vecs[i] = costmodel.StaticVector(pse.Static, sel.env)
		}
		sel.tripped[i] = u.Tripped(id)
		if sel.tripped[i] {
			sel.caps[i] = trippedCapacity(id)
		}
	}
}

// trippedCapacity is the breaker overlay: a tripped PSE's edge is
// saturated to infinite capacity so the min-cut never cuts it. The raw PSE
// is special — it is the degradation floor, so when even raw is tripped it
// gets InfCapacity−1: still astronomically expensive (any healthy split
// wins) but keeping the finite-cut invariant that makes "worst case: ship
// raw" always selectable.
func trippedCapacity(id int32) int64 {
	if id == partition.RawPSEID {
		return graph.InfCapacity - 1
	}
	return graph.InfCapacity
}

// priceCuts sums the per-PSE prices over each cut into sel.values and
// sel.cutVecs.
func priceCuts(sel *selection, cuts [][]int32) {
	sel.values = sel.values[:0]
	sel.cutVecs = sel.cutVecs[:0]
	for _, cut := range cuts {
		var value int64
		for _, id := range cut {
			value += sel.caps[id]
		}
		sel.values = append(sel.values, value)
		sel.cutVecs = append(sel.cutVecs, sumRow(sel.vecs, cut))
	}
}

// sumRow is a cut's cost vector: the sum of its PSEs' vectors, added in
// cut order.
func sumRow(vecs []costmodel.Vector, cut []int32) costmodel.Vector {
	var vec costmodel.Vector
	for _, id := range cut {
		vec = vec.Add(vecs[id])
	}
	return vec
}

// argmin returns the index of the smallest value, the first on ties.
func argmin(values []int64) int {
	best := 0
	for i, v := range values {
		if v < values[best] {
			best = i
		}
	}
	return best
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

// LastExplanation returns the most recent selection's Explanation, or nil
// before the first SelectPlan. Unlike the rest of the Unit it is safe to
// call from any goroutine. Each call builds a fresh snapshot from the
// recorded selection, so the cost of explaining falls on the reader and
// not on SelectPlan; front cuts may alias the handler's shared cut table
// and must not be modified.
func (u *Unit) LastExplanation() *Explanation {
	u.lastMu.Lock()
	defer u.lastMu.Unlock()
	sel := u.last
	if sel == nil {
		return nil
	}
	cp := sel.front[sel.chosen]
	ex := &Explanation{
		Version:         sel.version,
		Cut:             append([]int32(nil), cp.Cut...),
		CutValue:        cp.CutValue,
		Capacities:      make(map[int32]int64, len(sel.caps)),
		Profiled:        sel.profiled,
		Policy:          sel.policy,
		Front:           append([]FrontPoint(nil), sel.front...),
		Chosen:          sel.chosen,
		Env:             sel.env,
		Suppressed:      sel.suppressed,
		PendingCut:      append([]int32(nil), sel.pendingCut...),
		PendingStreak:   sel.pendingStreak,
		FlipsSuppressed: sel.flipsSuppressed,
		Complete:        sel.complete,
	}
	for id, c := range sel.caps {
		ex.Capacities[int32(id)] = c
		if sel.tripped[id] {
			ex.Tripped = append(ex.Tripped, int32(id))
		}
	}
	return ex
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

// minCut builds the flow network over the priced capacities (indexed by
// PSE id) and extracts the minimal cut restricted to PSE edges. The
// synthetic raw PSE is the source's only outgoing edge, so a finite cut
// always exists (worst case: ship raw events). Selection needs it only
// when the cut enumeration is truncated; it also serves as the test
// oracle for the enumerated balanced point.
func (u *Unit) minCut(caps []int64) ([]int32, int64, error) {
	ug := u.c.Analysis.UG
	n := ug.Exit + 1
	source := n
	sink := n + 1
	fn := graph.NewFlowNetwork(n + 2)

	// Raw PSE: source → start node.
	if err := fn.AddEdge(source, ug.Start, caps[partition.RawPSEID], int(partition.RawPSEID)); err != nil {
		return nil, 0, err
	}
	// UG edges: PSEs get their profiled/static capacity, everything else
	// is uncuttable.
	for _, e := range ug.Edges() {
		if id, ok := u.c.PSEByEdge(e); ok {
			if err := fn.AddEdge(e.From, e.To, caps[id], int(id)); err != nil {
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
