package reconfig

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"methodpart/internal/costmodel"
	"methodpart/internal/graph"
)

// SLOPolicy names the service-level objective a channel optimises for when
// picking its operating point off the Pareto front. The zero value is
// Balanced, which reproduces the pre-front behavior exactly: the scalarized
// min-cut under the channel's cost model. Existing deployments that never
// set a policy therefore keep selecting the same plans.
type SLOPolicy int

const (
	// Balanced is the default (zero value): take the cut the scalar
	// max-flow/min-cut picks under the channel's cost model, i.e. the
	// selection every release before the Pareto engine made.
	Balanced SLOPolicy = iota
	// LatencyFirst minimises the expected end-to-end latency estimate
	// (sender work + link set-up + transmission + receiver work), breaking
	// ties toward fewer bytes.
	LatencyFirst
	// CostFirst minimises expected bytes on the wire, breaking ties toward
	// lower latency. On metered or congested links this is the operating
	// point the data-size model approximates.
	CostFirst
	// ReceiverWeak minimises the receiver's energy proxy (radio bytes plus
	// demodulator work, weighted like the energy cost model's defaults) —
	// for channels whose subscriber is the battery-powered weak device of
	// §5.1.
	ReceiverWeak
)

// policyNames is the canonical wire/CLI spelling of each policy.
var policyNames = map[SLOPolicy]string{
	Balanced:     "balanced",
	LatencyFirst: "latency-first",
	CostFirst:    "cost-first",
	ReceiverWeak: "receiver-weak",
}

// String returns the policy's canonical name ("balanced", "latency-first",
// "cost-first", "receiver-weak"); unknown values render as policy(N).
func (p SLOPolicy) String() string {
	if s, ok := policyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParseSLOPolicy maps a policy name (as accepted on CLIs and configs) to
// its SLOPolicy. The empty string parses to Balanced so an unset knob keeps
// the legacy behavior.
func ParseSLOPolicy(name string) (SLOPolicy, error) {
	if name == "" {
		return Balanced, nil
	}
	for p, s := range policyNames {
		if s == name {
			return p, nil
		}
	}
	return Balanced, fmt.Errorf("reconfig: unknown SLO policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
}

// PolicyNames lists the accepted policy spellings in a stable order.
func PolicyNames() []string {
	return []string{"balanced", "latency-first", "cost-first", "receiver-weak"}
}

// DefaultMaxCandidates bounds the convex-cut enumeration behind the Pareto
// front when Unit.MaxCandidates is 0. Handlers small enough to partition
// have few convex cuts; 64 covers every fixture in this repo with room to
// spare while keeping pathological graphs from blowing up a selection.
const DefaultMaxCandidates = 64

// FrontPoint is one operating point on the Pareto front: a valid convex cut
// with its cost vector and the scalar capacity the balanced model assigns
// it. The point produced by the scalar min-cut is pinned to the front
// (Balanced=true) even where another point dominates it, so operators
// always see the legacy choice alongside the front.
type FrontPoint struct {
	// Cut is the split set (sorted PSE ids). It may alias the handler's
	// shared cut enumeration (partition.Compiled.ConvexCuts); do not
	// modify it.
	Cut []int32
	// Vec is the cut's cost vector (sum of its PSE vectors).
	Vec costmodel.Vector
	// CutValue is the scalar capacity of the cut under the channel's cost
	// model, with the breaker overlay applied.
	CutValue int64
	// Balanced marks the scalar min-cut's point.
	Balanced bool
	// Chosen marks the point the active policy selected.
	Chosen bool

	// idx is the cut's index in the priced cut list.
	idx int
}

// buildFront turns the priced cuts into the Pareto front in sel.front:
// it drops candidates priced out by the breaker overlay (any tripped
// member pushes the scalar value to InfCapacity) and dominated points,
// pins the balanced point cuts[bal], and sorts the front deterministically
// (bytes, then latency, then cut). It returns the balanced point's index
// in the front. All of it runs in sel's reused buffers.
func buildFront(sel *selection, cuts [][]int32, bal int) int {
	sel.points = sel.points[:0]
	for i, cut := range cuts {
		if sel.values[i] >= graph.InfCapacity && i != bal {
			continue // contains a tripped PSE; priced out
		}
		sel.points = append(sel.points, FrontPoint{
			Cut: cut, Vec: sel.cutVecs[i], CutValue: sel.values[i], Balanced: i == bal, idx: i,
		})
	}
	sel.front = sel.front[:0]
	for i, p := range sel.points {
		dominated := false
		for j, q := range sel.points {
			if i != j && q.Vec.Dominates(p.Vec) {
				dominated = true
				break
			}
		}
		if !dominated || p.Balanced {
			sel.front = append(sel.front, p)
		}
	}
	slices.SortFunc(sel.front, compareFront)
	return slices.IndexFunc(sel.front, func(p FrontPoint) bool { return p.Balanced })
}

// compareFront orders front points by bytes, then latency, then cut.
func compareFront(a, b FrontPoint) int {
	if c := cmp.Compare(a.Vec.Bytes, b.Vec.Bytes); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Vec.LatencyMS, b.Vec.LatencyMS); c != 0 {
		return c
	}
	return slices.Compare(a.Cut, b.Cut)
}

// choosePoint picks the front index the policy selects. Ties break through
// a deterministic chain (secondary objective, failure rate, scalar cut
// value, then cut identity) so repeated selections over identical inputs
// never flip-flop between equivalent points.
func choosePoint(front []FrontPoint, balIdx int, policy SLOPolicy) int {
	if policy == Balanced || len(front) == 0 {
		return balIdx
	}
	best := 0
	bestKey := policyKey(front[0], policy)
	for i := 1; i < len(front); i++ {
		k := policyKey(front[i], policy)
		if lessKeys(k, bestKey) || (k == bestKey && slices.Compare(front[i].Cut, front[best].Cut) < 0) {
			best, bestKey = i, k
		}
	}
	return best
}

// policyKey is the policy's objective chain for one front point, compared
// lexicographically.
func policyKey(p FrontPoint, policy SLOPolicy) [4]float64 {
	v := p.Vec
	switch policy {
	case LatencyFirst:
		return [4]float64{v.LatencyMS, v.Bytes, v.FailureRate, float64(p.CutValue)}
	case CostFirst:
		return [4]float64{v.Bytes, v.LatencyMS, v.FailureRate, float64(p.CutValue)}
	case ReceiverWeak:
		// Receiver energy proxy with the energy model's default
		// weights: radio nJ/byte and CPU nJ/work-unit.
		proxy := v.Bytes*250 + v.ReceiverWork*40
		return [4]float64{proxy, v.ReceiverWork, v.Bytes, float64(p.CutValue)}
	default:
		return [4]float64{float64(p.CutValue)}
	}
}

// policyPrimary is the policy's primary objective for one front point —
// the scalar the flip-hysteresis margin is applied to: the first element
// of choosePoint's key chain, so "beats by the margin" and "is preferred"
// agree on what matters.
func policyPrimary(p FrontPoint, policy SLOPolicy) float64 {
	return policyKey(p, policy)[0]
}

// lessKeys orders objective chains lexicographically.
func lessKeys(a, b [4]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
