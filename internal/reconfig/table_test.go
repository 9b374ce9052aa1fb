package reconfig

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/graph"
	"methodpart/internal/imaging"
	"methodpart/internal/mir/asm"
	"methodpart/internal/partition"
	"methodpart/internal/sensor"
	"methodpart/internal/testprog"
)

// refSelector is the selection algorithm as it stood before the cut table:
// a max-flow prices the balanced point on every call, every enumerated cut
// is priced from scratch, the front is filtered and sorted by brute force,
// and hysteresis runs over that front. It shares no code with SelectPlan
// apart from the max-flow (Unit.minCut), which is the oracle here.
type refSelector struct {
	c       *partition.Compiled
	policy  SLOPolicy
	margin  float64
	confirm int
	tripped map[int32]bool

	version       uint64
	lastCut       []int32
	hasLast       bool
	pendingCut    []int32
	pendingStreak int
	flips         uint64
	suppressed    uint64
}

// refOutcome is one reference selection.
type refOutcome struct {
	cut        []int32
	version    uint64
	suppressed bool
	front      []FrontPoint
	chosen     int
	balCut     []int32
	balValue   int64
}

func (r *refSelector) capacity(id int32, stats map[int32]costmodel.Stat, env costmodel.Environment) int64 {
	if r.tripped[id] {
		if id == partition.RawPSEID {
			return graph.InfCapacity - 1
		}
		return graph.InfCapacity
	}
	pse := &r.c.PSEs[id]
	if st, ok := stats[id]; ok && st.Count > 0 {
		return r.c.Model.Capacity(st, env)
	}
	return r.c.Model.StaticCapacity(pse.Static)
}

func (r *refSelector) vector(id int32, stats map[int32]costmodel.Stat, env costmodel.Environment) costmodel.Vector {
	if st, ok := stats[id]; ok && st.Count > 0 {
		return costmodel.PSEVector(st, env)
	}
	return costmodel.StaticVector(r.c.PSEs[id].Static, env)
}

func (r *refSelector) selectPlan(t *testing.T, stats map[int32]costmodel.Stat, env costmodel.Environment, max int) refOutcome {
	t.Helper()
	caps := make([]int64, r.c.NumPSEs())
	for id := range caps {
		caps[id] = r.capacity(int32(id), stats, env)
	}
	balCut, balValue, err := (&Unit{c: r.c}).minCut(caps)
	if err != nil {
		t.Fatalf("max-flow: %v", err)
	}
	cuts := r.c.ConvexCuts(max)
	if !partition.ContainsCut(cuts, balCut) {
		cuts = append(cuts[:len(cuts):len(cuts)], balCut)
	}
	var points []FrontPoint
	for _, cut := range cuts {
		var value int64
		var vec costmodel.Vector
		for _, id := range cut {
			value += caps[id]
			vec = vec.Add(r.vector(id, stats, env))
		}
		bal := partition.EqualCut(cut, balCut)
		if bal {
			value = balValue
		}
		if value >= graph.InfCapacity && !bal {
			continue
		}
		points = append(points, FrontPoint{Cut: cut, Vec: vec, CutValue: value, Balanced: bal})
	}
	var front []FrontPoint
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i != j && q.Vec.Dominates(p.Vec) {
				dominated = true
			}
		}
		if !dominated || p.Balanced {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		a, b := front[i], front[j]
		if a.Vec.Bytes != b.Vec.Bytes {
			return a.Vec.Bytes < b.Vec.Bytes
		}
		if a.Vec.LatencyMS != b.Vec.LatencyMS {
			return a.Vec.LatencyMS < b.Vec.LatencyMS
		}
		return slices.Compare(a.Cut, b.Cut) < 0
	})
	balIdx := -1
	for i := range front {
		if front[i].Balanced {
			balIdx = i
		}
	}
	chosen := balIdx
	if r.policy != Balanced {
		chosen = 0
		for i := 1; i < len(front); i++ {
			ki, kc := refKey(front[i], r.policy), refKey(front[chosen], r.policy)
			if c := slices.Compare(ki, kc); c < 0 || (c == 0 && slices.Compare(front[i].Cut, front[chosen].Cut) < 0) {
				chosen = i
			}
		}
		if r.c.ValidateSplitSet(front[chosen].Cut) != nil {
			chosen = balIdx
		}
	}
	chosen, suppressed := r.hysteresis(front, chosen)
	front[chosen].Chosen = true
	cut := front[chosen].Cut
	if r.hasLast && !partition.EqualCut(r.lastCut, cut) {
		r.flips++
	}
	r.lastCut = append([]int32(nil), cut...)
	r.hasLast = true
	r.version++
	return refOutcome{cut: cut, version: r.version, suppressed: suppressed, front: front,
		chosen: chosen, balCut: balCut, balValue: balValue}
}

func refKey(p FrontPoint, policy SLOPolicy) []float64 {
	v := p.Vec
	switch policy {
	case LatencyFirst:
		return []float64{v.LatencyMS, v.Bytes, v.FailureRate, float64(p.CutValue)}
	case CostFirst:
		return []float64{v.Bytes, v.LatencyMS, v.FailureRate, float64(p.CutValue)}
	default: // ReceiverWeak
		return []float64{v.Bytes*250 + v.ReceiverWork*40, v.ReceiverWork, v.Bytes, float64(p.CutValue)}
	}
}

func refPrimary(p FrontPoint, policy SLOPolicy) float64 {
	if policy == Balanced {
		return float64(p.CutValue)
	}
	return refKey(p, policy)[0]
}

func (r *refSelector) hysteresis(front []FrontPoint, chosen int) (int, bool) {
	reset := func() { r.pendingCut, r.pendingStreak = nil, 0 }
	if r.margin <= 0 || !r.hasLast || partition.EqualCut(r.lastCut, front[chosen].Cut) {
		reset()
		return chosen, false
	}
	incumbent := slices.IndexFunc(front, func(p FrontPoint) bool { return partition.EqualCut(p.Cut, r.lastCut) })
	if incumbent < 0 {
		reset()
		return chosen, false
	}
	if !(refPrimary(front[chosen], r.policy) < refPrimary(front[incumbent], r.policy)*(1-r.margin)) {
		reset()
		r.suppressed++
		return incumbent, true
	}
	if r.pendingStreak > 0 && partition.EqualCut(r.pendingCut, front[chosen].Cut) {
		r.pendingStreak++
	} else {
		r.pendingCut = append([]int32(nil), front[chosen].Cut...)
		r.pendingStreak = 1
	}
	if r.pendingStreak >= r.confirm {
		reset()
		return chosen, false
	}
	r.suppressed++
	return incumbent, true
}

// randomStats draws profiled statistics for n PSEs. Half the draws use
// coarse byte counts so that cuts tie; some PSEs stay unprofiled (static
// estimates) and some are profiled with zero bytes or zero probability.
func randomStats(rng *rand.Rand, n int) map[int32]costmodel.Stat {
	coarse := rng.Intn(2) == 0
	stats := make(map[int32]costmodel.Stat, n)
	for id := int32(0); id < int32(n); id++ {
		switch rng.Intn(8) {
		case 0:
			continue
		case 1:
			stats[id] = costmodel.Stat{Count: 10, Prob: float64(rng.Intn(2))}
			continue
		}
		bytes := float64(rng.Intn(100000))
		if coarse {
			bytes = float64(rng.Intn(3) * 1000)
		}
		stats[id] = costmodel.Stat{
			Count:     uint64(1 + rng.Intn(100)),
			Prob:      []float64{1, 1, 0.5, 0.25}[rng.Intn(4)],
			Bytes:     bytes,
			ModWork:   float64(rng.Intn(4) * 5000),
			DemodWork: float64(rng.Intn(4) * 5000),
			Failures:  uint64(rng.Intn(2)),
		}
	}
	return stats
}

// randomTripped opens breakers on a random PSE or two (the raw PSE
// included) in a quarter of the draws.
func randomTripped(rng *rand.Rand, n int) []int32 {
	if rng.Intn(4) != 0 {
		return nil
	}
	ids := []int32{int32(rng.Intn(n))}
	if rng.Intn(2) == 0 {
		ids = append(ids, int32(rng.Intn(n)))
	}
	return ids
}

// TestTableSelectionMatchesReference is the differential oracle for the cut
// table. Over random handlers and the benchmark fixtures, random statistics
// (ties, zero capacities, tripped PSEs), every SLO policy and hysteresis on
// and off, a sequence of table selections must agree with the max-flow
// reference on every observable: the balanced point (identity and value),
// the whole front, the chosen cut, the version, suppression and the flip
// counters.
func TestTableSelectionMatchesReference(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	selections := 0
	for seed := int64(1); seed <= seeds; seed++ {
		prog := testprog.RandomProgram(seed)
		reg, _ := testprog.SinkRegistry()
		model := costmodel.Model(costmodel.NewDataSize())
		if seed%2 == 0 {
			model = costmodel.NewExecTime()
		}
		c, err := partition.Compile(prog, nil, reg, model)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		selections += differential(t, fmt.Sprintf("seed %d", seed), c, rand.New(rand.NewSource(seed)))
	}
	for name, c := range handlers(t) {
		rng := rand.New(rand.NewSource(1))
		for i := int64(0); i < seeds/8; i++ {
			selections += differential(t, fmt.Sprintf("%s draw %d", name, i), c, rng)
		}
	}
	t.Logf("%d selections agreed", selections)
}

// differential runs one sequence of selections per policy and margin on c
// against the reference and returns how many it compared.
func differential(t *testing.T, name string, c *partition.Compiled, rng *rand.Rand) int {
	t.Helper()
	if !c.CutTable(DefaultMaxCandidates).Complete {
		t.Errorf("%s: enumeration of %d PSEs truncated at %d cuts", name, c.NumPSEs(), DefaultMaxCandidates)
	}
	bandwidths := []float64{100, 1000, 1e5}
	n := 0
	for _, policy := range []SLOPolicy{Balanced, LatencyFirst, CostFirst, ReceiverWeak} {
		for _, margin := range []float64{0, 0.1} {
			u := NewUnit(c, costmodel.DefaultEnvironment())
			u.Policy, u.FlipMargin, u.FlipConfirmations = policy, margin, 2
			ref := &refSelector{c: c, policy: policy, margin: margin, confirm: 2}
			var stats map[int32]costmodel.Stat
			for step := 0; step < 6; step++ {
				if stats == nil || rng.Intn(2) == 0 {
					stats = randomStats(rng, c.NumPSEs())
				}
				env := costmodel.DefaultEnvironment()
				env.Bandwidth = bandwidths[rng.Intn(len(bandwidths))]
				u.SetEnvironment(env)
				tripped := randomTripped(rng, c.NumPSEs())
				u.SetTripped(tripped)
				ref.tripped = map[int32]bool{}
				for _, id := range tripped {
					ref.tripped[id] = true
				}
				where := fmt.Sprintf("%s %s margin %.1f step %d", name, policy, margin, step)
				plan, wp, err := u.SelectPlan(stats)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				want := ref.selectPlan(t, stats, u.Environment(), DefaultMaxCandidates)
				checkAgainstReference(t, where, u, plan, wp.Split, want, ref)
				n++
			}
		}
	}
	return n
}

func checkAgainstReference(t *testing.T, where string, u *Unit, plan *partition.Plan, wireSplit []int32, want refOutcome, ref *refSelector) {
	t.Helper()
	ex := u.LastExplanation()
	bal := ex.Front[slices.IndexFunc(ex.Front, func(p FrontPoint) bool { return p.Balanced })]
	if !partition.EqualCut(bal.Cut, want.balCut) || bal.CutValue != want.balValue {
		t.Fatalf("%s: balanced point %v (%d), max-flow cut %v (%d)", where, bal.Cut, bal.CutValue, want.balCut, want.balValue)
	}
	if len(ex.Front) != len(want.front) {
		t.Fatalf("%s: front %v, reference %v", where, ex.Front, want.front)
	}
	for i, p := range ex.Front {
		q := want.front[i]
		if !partition.EqualCut(p.Cut, q.Cut) || p.Vec != q.Vec || p.CutValue != q.CutValue ||
			p.Balanced != q.Balanced || p.Chosen != q.Chosen {
			t.Fatalf("%s: front[%d] = %+v, reference %+v", where, i, p, q)
		}
	}
	if !partition.EqualCut(plan.SplitIDs(), want.cut) || !partition.EqualCut(wireSplit, want.cut) ||
		!partition.EqualCut(ex.Cut, want.cut) || ex.Chosen != want.chosen {
		t.Fatalf("%s: chose %v (front %d), reference %v (front %d)", where, plan.SplitIDs(), ex.Chosen, want.cut, want.chosen)
	}
	if plan.Version() != want.version || ex.Version != want.version {
		t.Fatalf("%s: version %d, reference %d", where, plan.Version(), want.version)
	}
	if ex.Suppressed != want.suppressed || u.PolicyFlips() != ref.flips || u.FlipsSuppressed() != ref.suppressed ||
		ex.PendingStreak != ref.pendingStreak || !partition.EqualCut(ex.PendingCut, ref.pendingCut) {
		t.Fatalf("%s: suppressed %v flips %d/%d pending %v×%d, reference %v flips %d/%d pending %v×%d", where,
			ex.Suppressed, u.PolicyFlips(), u.FlipsSuppressed(), ex.PendingCut, ex.PendingStreak,
			want.suppressed, ref.flips, ref.suppressed, ref.pendingCut, ref.pendingStreak)
	}
}

// TestTruncatedEnumerationUsesMaxFlow: under a cap below the handler's cut
// count the table is incomplete, the explanation says so, and the balanced
// point is still the max-flow cut, also when the enumeration misses it.
func TestTruncatedEnumerationUsesMaxFlow(t *testing.T) {
	c := compileImage(t, imaging.RichHandlerUnit(100), imaging.RichHandlerName)
	all := c.CutTable(DefaultMaxCandidates)
	if !all.Complete || len(all.Cuts) < 3 {
		t.Fatalf("full table: %d cuts, complete=%v", len(all.Cuts), all.Complete)
	}
	// Dear raw, 2 and 3 make the last-enumerated cut the min-cut.
	stats := make(map[int32]costmodel.Stat, c.NumPSEs())
	for id := int32(0); id < int32(c.NumPSEs()); id++ {
		stats[id] = costmodel.Stat{Count: 10, Prob: 1, Bytes: 10}
	}
	for _, id := range []int32{partition.RawPSEID, 2, 3} {
		stats[id] = costmodel.Stat{Count: 10, Prob: 1, Bytes: 1e6}
	}
	missed := false
	for max := 1; max < len(all.Cuts); max++ {
		u := NewUnit(c, costmodel.DefaultEnvironment())
		u.MaxCandidates = max
		plan, _, err := u.SelectPlan(stats)
		if err != nil {
			t.Fatal(err)
		}
		ex := u.LastExplanation()
		if ex.Complete {
			t.Errorf("cap %d of %d cuts: explanation reports a complete enumeration", max, len(all.Cuts))
		}
		ref := &refSelector{c: c}
		want := ref.selectPlan(t, stats, u.Environment(), max)
		if !partition.EqualCut(plan.SplitIDs(), want.balCut) || ex.CutValue != want.balValue {
			t.Errorf("cap %d: chose %v (%d), max-flow cut %v (%d)", max, plan.SplitIDs(), ex.CutValue, want.balCut, want.balValue)
		}
		if !partition.ContainsCut(c.ConvexCuts(max), want.balCut) {
			missed = true
		}
	}
	if !missed {
		t.Fatal("no cap left the max-flow cut out of the enumeration")
	}
	u := NewUnit(c, costmodel.DefaultEnvironment())
	if _, _, err := u.SelectPlan(stats); err != nil {
		t.Fatal(err)
	}
	if !u.LastExplanation().Complete {
		t.Error("default cap: explanation reports a truncated enumeration")
	}
}

// TestConcurrentUnitsAndReaders drives the state several goroutines share:
// units on one handler fill the shared cut table's validity and template
// caches concurrently, while readers materialize each unit's explanation
// in the middle of its selections. Run under -race.
func TestConcurrentUnitsAndReaders(t *testing.T) {
	c := compileImage(t, imaging.RichHandlerUnit(100), imaging.RichHandlerName)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		u := NewUnit(c, costmodel.DefaultEnvironment())
		u.Policy = []SLOPolicy{Balanced, LatencyFirst, CostFirst, ReceiverWeak}[g]
		stop := make(chan struct{})
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			defer close(stop)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				plan, _, err := u.SelectPlan(randomStats(rng, c.NumPSEs()))
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.ValidateSplitSet(plan.SplitIDs()); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ex := u.LastExplanation(); ex != nil && !partition.EqualCut(ex.Cut, ex.Front[ex.Chosen].Cut) {
					t.Errorf("explanation cut %v, chosen front point %v", ex.Cut, ex.Front[ex.Chosen].Cut)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// handlers are the selection fixtures of the allocation guards and the
// benchmark: the two image handlers of the benchmark workloads and the
// ~22-PSE sensor handler.
func handlers(t testing.TB) map[string]*partition.Compiled {
	t.Helper()
	out := map[string]*partition.Compiled{
		"show":     compileImage(t, imaging.HandlerUnit(100), imaging.HandlerName),
		"showRich": compileImage(t, imaging.RichHandlerUnit(100), imaging.RichHandlerName),
	}
	unit := sensor.HandlerUnit(sensor.DefaultStages)
	prog, _ := unit.Program(sensor.HandlerName)
	classes, err := unit.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := sensor.Builtins(sensor.DefaultStages)
	c, err := partition.Compile(prog, classes, reg, costmodel.NewExecTime())
	if err != nil {
		t.Fatal(err)
	}
	out["sensor"] = c
	return out
}

func compileImage(t testing.TB, unit *asm.Unit, name string) *partition.Compiled {
	t.Helper()
	prog, _ := unit.Program(name)
	classes, err := unit.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	reg, _ := imaging.Builtins()
	c, err := partition.Compile(prog, classes, reg, costmodel.NewDataSize())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// profiledStats gives every PSE live statistics, as a running channel has.
func profiledStats(c *partition.Compiled) map[int32]costmodel.Stat {
	n := int32(c.NumPSEs())
	stats := make(map[int32]costmodel.Stat, n)
	for id := int32(0); id < n; id++ {
		stats[id] = costmodel.Stat{
			Count: 100, Prob: 1, Bytes: float64(1000 + id),
			ModWork: float64(100 * id), DemodWork: float64(100 * (n - id)),
		}
	}
	return stats
}

// TestSelectPlanAllocs pins steady-state selection to exactly two
// allocations — the returned Plan and wire.Plan — on every fixture and
// policy, with and without an open breaker.
func TestSelectPlanAllocs(t *testing.T) {
	for name, c := range handlers(t) {
		stats := profiledStats(c)
		for _, policy := range []SLOPolicy{Balanced, LatencyFirst} {
			u := NewUnit(c, costmodel.DefaultEnvironment())
			u.Policy, u.FlipMargin = policy, 0.1
			u.SetTripped([]int32{1})
			run := func() {
				if _, _, err := u.SelectPlan(stats); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				run() // both selection buffers and the plan template
			}
			if got := testing.AllocsPerRun(100, run); got != 2 {
				t.Errorf("%s/%s: SelectPlan allocates %.0f objects, want 2", name, policy, got)
			}
		}
	}
}

// BenchmarkSelectPlan measures one steady-state plan selection per
// fixture.
func BenchmarkSelectPlan(b *testing.B) {
	hs := handlers(b)
	for _, name := range []string{"show", "showRich", "sensor"} {
		c := hs[name]
		b.Run(name, func(b *testing.B) {
			stats := profiledStats(c)
			u := NewUnit(c, costmodel.DefaultEnvironment())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := u.SelectPlan(stats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
