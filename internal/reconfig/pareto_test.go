package reconfig_test

import (
	"fmt"
	"math/rand"
	"testing"

	"methodpart/internal/costmodel"
	"methodpart/internal/imaging"
	"methodpart/internal/partition"
	"methodpart/internal/reconfig"
)

// compileRich compiles the two-transform image handler (a 6-PSE ladder
// with branching) — the richest convex-cut space in the repo.
func compileRich(t *testing.T, model costmodel.Model) *partition.Compiled {
	t.Helper()
	unit := imaging.RichHandlerUnit(100)
	prog, _ := unit.Program(imaging.RichHandlerName)
	classes, err := unit.ClassTable()
	if err != nil {
		t.Fatal(err)
	}
	oracle, _ := imaging.Builtins()
	c, err := partition.Compile(prog, classes, oracle, model)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFrontProperties is the front's property test: across random profiled
// statistics, every selection's front (a) is non-empty and contains the
// balanced min-cut's point exactly once, (b) contains no point dominated
// by another front point — except possibly the pinned balanced point —
// and (c) only valid convex cuts, with the chosen index consistent.
func TestFrontProperties(t *testing.T) {
	c := compileRich(t, costmodel.NewDataSize())
	rng := rand.New(rand.NewSource(7))
	policies := []reconfig.SLOPolicy{
		reconfig.Balanced, reconfig.LatencyFirst, reconfig.CostFirst, reconfig.ReceiverWeak,
	}
	for trial := 0; trial < 100; trial++ {
		stats := make(map[int32]costmodel.Stat, c.NumPSEs())
		for id := int32(0); id < int32(c.NumPSEs()); id++ {
			stats[id] = costmodel.Stat{
				Count:     10,
				Prob:      1,
				Bytes:     float64(1 + rng.Intn(100000)),
				ModWork:   float64(rng.Intn(50000)),
				DemodWork: float64(rng.Intn(50000)),
				Failures:  uint64(rng.Intn(3)),
			}
		}
		u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
		u.Policy = policies[trial%len(policies)]
		plan, _, err := u.SelectPlan(stats)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ex := u.LastExplanation()
		if ex == nil || len(ex.Front) == 0 {
			t.Fatalf("trial %d: no front", trial)
		}
		balanced := 0
		for i, p := range ex.Front {
			if err := c.ValidateSplitSet(p.Cut); err != nil {
				t.Errorf("trial %d: front[%d] cut %v invalid: %v", trial, i, p.Cut, err)
			}
			if p.Balanced {
				balanced++
			}
			for j, q := range ex.Front {
				if i != j && q.Vec.Dominates(p.Vec) && !p.Balanced {
					t.Errorf("trial %d: front[%d] %v dominated by front[%d] %v",
						trial, i, p, j, q)
				}
			}
		}
		if balanced != 1 {
			t.Errorf("trial %d: %d balanced points on the front, want exactly 1", trial, balanced)
		}
		if ex.Chosen < 0 || ex.Chosen >= len(ex.Front) {
			t.Fatalf("trial %d: chosen index %d out of range", trial, ex.Chosen)
		}
		cp := ex.Front[ex.Chosen]
		if !cp.Chosen {
			t.Errorf("trial %d: front[%d] not flagged chosen", trial, ex.Chosen)
		}
		if fmt.Sprint(cp.Cut) != fmt.Sprint(ex.Cut) || fmt.Sprint(plan.SplitIDs()) != fmt.Sprint(ex.Cut) {
			t.Errorf("trial %d: chosen point %v != explanation cut %v != plan %v",
				trial, cp.Cut, ex.Cut, plan.SplitIDs())
		}
	}
}

// TestBalancedPolicyMatchesLegacyMinCut: the zero-value policy must choose
// the balanced (scalar min-cut) point itself, preserving pre-front
// behavior bit for bit.
func TestBalancedPolicyMatchesLegacyMinCut(t *testing.T) {
	c := compileRich(t, costmodel.NewDataSize())
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		stats := make(map[int32]costmodel.Stat, c.NumPSEs())
		for id := int32(0); id < int32(c.NumPSEs()); id++ {
			stats[id] = costmodel.Stat{Count: 10, Prob: 1, Bytes: float64(1 + rng.Intn(100000))}
		}
		u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
		if _, _, err := u.SelectPlan(stats); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ex := u.LastExplanation()
		if !ex.Front[ex.Chosen].Balanced {
			t.Fatalf("trial %d: balanced policy chose a non-balanced point %+v",
				trial, ex.Front[ex.Chosen])
		}
	}
}

// TestPoliciesPickDifferentPoints constructs statistics where the front
// forks — an early cut that is latency-optimal (slow sender) and a late
// cut that is bytes-optimal — and checks each policy lands on its own
// objective's point.
func TestPoliciesPickDifferentPoints(t *testing.T) {
	c := compilePush(t, costmodel.NewDataSize())
	preID := pse(t, c, 2, 3)
	postID := pse(t, c, 4, 5)
	filterID := pse(t, c, 1, 7)
	rawID := partition.RawPSEID

	// Slow sender: resizing before shipping costs 450 virtual ms.
	env := costmodel.Environment{SenderSpeed: 100, ReceiverSpeed: 1000, Bandwidth: 1000, LatencyMS: 1}
	stats := map[int32]costmodel.Stat{
		rawID:    {Count: 100, Prob: 1, Bytes: 45000, ModWork: 0, DemodWork: 50000},
		preID:    {Count: 100, Prob: 1, Bytes: 40000, ModWork: 100, DemodWork: 49900},
		postID:   {Count: 100, Prob: 1, Bytes: 10000, ModWork: 45000, DemodWork: 5000},
		filterID: {Count: 100, Prob: 0},
	}

	cutFor := func(policy reconfig.SLOPolicy) []int32 {
		u := reconfig.NewUnit(c, env)
		u.Policy = policy
		plan, _, err := u.SelectPlan(stats)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		return plan.SplitIDs()
	}

	latCut := cutFor(reconfig.LatencyFirst)
	costCut := cutFor(reconfig.CostFirst)
	weakCut := cutFor(reconfig.ReceiverWeak)
	if !contains(latCut, preID) {
		t.Errorf("latency-first chose %v, want the pre-resize cut (PSE %d)", latCut, preID)
	}
	if !contains(costCut, postID) {
		t.Errorf("cost-first chose %v, want the post-resize cut (PSE %d)", costCut, postID)
	}
	if fmt.Sprint(latCut) == fmt.Sprint(costCut) {
		t.Errorf("policies collapsed to the same cut %v", latCut)
	}
	if !contains(weakCut, postID) {
		t.Errorf("receiver-weak chose %v, want the low-bytes/low-work cut (PSE %d)", weakCut, postID)
	}
}

// TestTrippedExcludedFromFront: a tripped PSE is priced at InfCapacity, so
// no front point may contain it.
func TestTrippedExcludedFromFront(t *testing.T) {
	c := compilePush(t, costmodel.NewDataSize())
	postID := pse(t, c, 4, 5)
	u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
	u.SetTripped([]int32{postID})
	if _, _, err := u.SelectPlan(nil); err != nil {
		t.Fatal(err)
	}
	ex := u.LastExplanation()
	for _, p := range ex.Front {
		if contains(p.Cut, postID) {
			t.Errorf("front point %v contains tripped PSE %d", p.Cut, postID)
		}
	}
}

// TestPolicyFlipsCounter: consecutive selections that change the chosen
// cut increment PolicyFlips; stable selections do not.
func TestPolicyFlipsCounter(t *testing.T) {
	c := compilePush(t, costmodel.NewDataSize())
	preID := pse(t, c, 2, 3)
	postID := pse(t, c, 4, 5)
	filterID := pse(t, c, 1, 7)
	rawID := partition.RawPSEID
	u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())

	large := map[int32]costmodel.Stat{
		rawID:  {Count: 100, Prob: 1, Bytes: 40100},
		preID:  {Count: 100, Prob: 1, Bytes: 40100},
		postID: {Count: 100, Prob: 1, Bytes: 10100},
	}
	small := map[int32]costmodel.Stat{
		rawID:  {Count: 100, Prob: 1, Bytes: 6500},
		preID:  {Count: 100, Prob: 1, Bytes: 6400},
		postID: {Count: 100, Prob: 1, Bytes: 10100},
	}
	_ = filterID
	for _, st := range []map[int32]costmodel.Stat{large, large, small, small} {
		if _, _, err := u.SelectPlan(st); err != nil {
			t.Fatal(err)
		}
	}
	if got := u.PolicyFlips(); got != 1 {
		t.Errorf("PolicyFlips = %d, want 1 (large→large→small→small)", got)
	}
}

func TestParseSLOPolicy(t *testing.T) {
	for _, name := range reconfig.PolicyNames() {
		p, err := reconfig.ParseSLOPolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.String() != name {
			t.Errorf("round trip %q -> %v -> %q", name, p, p.String())
		}
	}
	if p, err := reconfig.ParseSLOPolicy(""); err != nil || p != reconfig.Balanced {
		t.Errorf("empty policy = %v, %v; want Balanced, nil", p, err)
	}
	if _, err := reconfig.ParseSLOPolicy("speed-demon"); err == nil {
		t.Error("unknown policy parsed without error")
	}
}

// TestEnvironmentRace is the -race regression for the SetEnvironment /
// Environment / SelectPlan data race: environment updates may arrive from
// a measurement goroutine while the endpoint goroutine selects plans.
func TestEnvironmentRace(t *testing.T) {
	c := compilePush(t, costmodel.NewDataSize())
	u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
	stats := map[int32]costmodel.Stat{
		partition.RawPSEID: {Count: 10, Prob: 1, Bytes: 1000},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			env := costmodel.DefaultEnvironment()
			env.SenderSpeed = float64(100 + i)
			u.SetEnvironment(env)
			_ = u.Environment()
		}
	}()
	for i := 0; i < 300; i++ {
		if _, _, err := u.SelectPlan(stats); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func contains(cut []int32, id int32) bool {
	for _, c := range cut {
		if c == id {
			return true
		}
	}
	return false
}

// TestUnitsShareCutEnumeration checks that every unit on one handler prices
// the handler's single cached cut enumeration (front cuts alias its
// entries), and that pinning a balanced cut missing from a capped
// enumeration never writes into the shared list.
func TestUnitsShareCutEnumeration(t *testing.T) {
	c := compileRich(t, costmodel.NewDataSize())
	shared := c.ConvexCuts(reconfig.DefaultMaxCandidates)
	aliased := func(cut []int32) bool {
		for _, s := range shared {
			if len(s) > 0 && len(cut) > 0 && &s[0] == &cut[0] {
				return true
			}
		}
		return false
	}
	for i := 0; i < 2; i++ {
		u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
		if _, _, err := u.SelectPlan(nil); err != nil {
			t.Fatal(err)
		}
		for _, p := range u.LastExplanation().Front {
			if !aliased(p.Cut) && !p.Balanced {
				t.Errorf("unit %d: front cut %v is not from the shared enumeration", i, p.Cut)
			}
		}
	}

	// Under small caps the balanced cut falls outside the enumeration and
	// is appended per selection; the spare capacity of the shared list
	// must stay untouched.
	deep := make(map[int32]costmodel.Stat, c.NumPSEs())
	for id := int32(0); id < int32(c.NumPSEs()); id++ {
		deep[id] = costmodel.Stat{Count: 10, Prob: 1, Bytes: 10}
	}
	// Make the last-enumerated cut [1 4] the min-cut: dear raw, 2 and 3.
	for _, id := range []int32{partition.RawPSEID, 2, 3} {
		deep[id] = costmodel.Stat{Count: 10, Prob: 1, Bytes: 1e6}
	}
	appended := false
	for max := 1; max <= 4; max++ {
		capped := c.ConvexCuts(max)
		u := reconfig.NewUnit(c, costmodel.DefaultEnvironment())
		u.MaxCandidates = max
		if _, _, err := u.SelectPlan(deep); err != nil {
			t.Fatal(err)
		}
		if !partition.ContainsCut(capped, u.LastExplanation().Cut) {
			appended = true
		}
		if got := c.ConvexCuts(max); len(got) != len(capped) {
			t.Errorf("cap %d: shared list grew from %d to %d cuts", max, len(capped), len(got))
		}
		for _, spare := range capped[len(capped):cap(capped)] {
			if spare != nil {
				t.Errorf("cap %d: selection wrote %v past the shared list's end", max, spare)
			}
		}
	}
	if !appended {
		t.Fatal("no cap left the balanced cut out; the append path went unexercised")
	}
}
