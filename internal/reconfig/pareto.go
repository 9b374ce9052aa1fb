package reconfig

import (
	"fmt"
	"sort"
	"strings"

	"methodpart/internal/costmodel"
	"methodpart/internal/graph"
	"methodpart/internal/partition"
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
}

// vectorFor is the per-PSE cost vector: profiled where statistics exist,
// the static estimate otherwise (mirroring Capacity's fallback).
func (u *Unit) vectorFor(id int32, stats map[int32]costmodel.Stat, env costmodel.Environment) costmodel.Vector {
	if st, ok := stats[id]; ok && st.Count > 0 {
		return costmodel.PSEVector(st, env)
	}
	pse, ok := u.c.PSE(id)
	if !ok {
		return costmodel.Vector{}
	}
	return costmodel.StaticVector(pse.Static, env)
}

// buildFront enumerates candidate cuts, prices each as a cost vector,
// drops dominated points and candidates priced out by the breaker overlay
// (any tripped member pushes the scalar value to InfCapacity), and pins the
// balanced min-cut's point. It returns the front sorted deterministically
// (bytes, then latency, then cut) and the index of the balanced point.
func (u *Unit) buildFront(stats map[int32]costmodel.Stat, env costmodel.Environment, balCut []int32, balValue int64) ([]FrontPoint, int) {
	max := u.MaxCandidates
	if max <= 0 {
		max = DefaultMaxCandidates
	}
	// The enumeration is shared with every unit on this handler; the
	// full slice expression makes the append copy instead of writing into
	// the shared backing array.
	cuts := u.c.ConvexCuts(max)
	if !partition.ContainsCut(cuts, balCut) {
		cuts = append(cuts[:len(cuts):len(cuts)], balCut)
	}

	points := make([]FrontPoint, 0, len(cuts))
	for _, cut := range cuts {
		var value int64
		var vec costmodel.Vector
		for _, id := range cut {
			value += u.capacityFor(id, stats, env)
			vec = vec.Add(u.vectorFor(id, stats, env))
		}
		bal := partition.EqualCut(cut, balCut)
		if bal {
			value = balValue
		}
		if value >= graph.InfCapacity && !bal {
			continue // contains a tripped PSE; priced out
		}
		points = append(points, FrontPoint{Cut: cut, Vec: vec, CutValue: value, Balanced: bal})
	}

	front := points[:0:0]
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && q.Vec.Dominates(p.Vec) {
				dominated = true
				break
			}
		}
		if !dominated || p.Balanced {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Vec.Bytes != front[j].Vec.Bytes {
			return front[i].Vec.Bytes < front[j].Vec.Bytes
		}
		if front[i].Vec.LatencyMS != front[j].Vec.LatencyMS {
			return front[i].Vec.LatencyMS < front[j].Vec.LatencyMS
		}
		return cutLess(front[i].Cut, front[j].Cut)
	})
	balIdx := 0
	for i := range front {
		if front[i].Balanced {
			balIdx = i
			break
		}
	}
	return front, balIdx
}

// choosePoint picks the front index the policy selects. Ties break through
// a deterministic chain (secondary objective, failure rate, scalar cut
// value, then cut identity) so repeated selections over identical inputs
// never flip-flop between equivalent points.
func choosePoint(front []FrontPoint, balIdx int, policy SLOPolicy) int {
	if policy == Balanced || len(front) == 0 {
		return balIdx
	}
	key := func(p FrontPoint) []float64 {
		v := p.Vec
		switch policy {
		case LatencyFirst:
			return []float64{v.LatencyMS, v.Bytes, v.FailureRate, float64(p.CutValue)}
		case CostFirst:
			return []float64{v.Bytes, v.LatencyMS, v.FailureRate, float64(p.CutValue)}
		case ReceiverWeak:
			// Receiver energy proxy with the energy model's default
			// weights: radio nJ/byte and CPU nJ/work-unit.
			proxy := v.Bytes*250 + v.ReceiverWork*40
			return []float64{proxy, v.ReceiverWork, v.Bytes, float64(p.CutValue)}
		default:
			return []float64{float64(p.CutValue)}
		}
	}
	best := 0
	bestKey := key(front[0])
	for i := 1; i < len(front); i++ {
		k := key(front[i])
		if lessKeys(k, bestKey) || (equalKeys(k, bestKey) && cutLess(front[i].Cut, front[best].Cut)) {
			best, bestKey = i, k
		}
	}
	return best
}

// policyPrimary is the policy's primary objective for one front point —
// the scalar the flip-hysteresis margin is applied to. It mirrors the
// first element of choosePoint's key chain so "beats by the margin" and
// "is preferred" agree on what matters.
func policyPrimary(p FrontPoint, policy SLOPolicy) float64 {
	v := p.Vec
	switch policy {
	case LatencyFirst:
		return v.LatencyMS
	case CostFirst:
		return v.Bytes
	case ReceiverWeak:
		return v.Bytes*250 + v.ReceiverWork*40
	default:
		return float64(p.CutValue)
	}
}

func lessKeys(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func equalKeys(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cutLess orders cuts lexicographically, shorter first on shared prefixes.
func cutLess(a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
