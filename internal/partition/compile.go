// Package partition is the core of Method Partitioning: it compiles a
// message handler into a modulator/demodulator pair with a table of
// Potential Split Edges, and executes the two halves with Remote
// Continuation between them. Switching the active partitioning plan is an
// atomic pointer swap over a flag bitset — the paper's "as efficient as
// changing flag values" adaptation (§2.6).
package partition

import (
	"fmt"
	"sort"
	"sync"

	"methodpart/internal/analysis"
	"methodpart/internal/costmodel"
	"methodpart/internal/mir"
	"methodpart/internal/mir/interp"
	"methodpart/internal/wire"
)

// RawPSEID is the id of the synthetic split point "before the first
// instruction": cutting there ships the unmodulated event and runs the
// entire handler at the receiver.
const RawPSEID int32 = 0

// PSE is one potential split edge of a compiled handler.
type PSE struct {
	// ID is the dense identifier (RawPSEID for the synthetic entry cut;
	// real PSEs start at 1).
	ID int32
	// Edge is the UG edge (From is -1 for the raw PSE).
	Edge analysis.Edge
	// Vars is the sorted hand-over set INTER(Edge) — the live variables a
	// continuation at this PSE must carry.
	Vars []string
	// Static is the static cost descriptor from the analysis.
	Static analysis.CostDesc
}

// Compiled is a handler compiled for partitioning under one cost model: the
// program, its analysis, and the PSE table shared by the modulator and the
// demodulator sides.
type Compiled struct {
	// Prog is the handler program.
	Prog *mir.Program
	// Classes is the class table the handler runs against.
	Classes *mir.ClassTable
	// Model is the cost model the handler was analysed under.
	Model costmodel.Model
	// Analysis is the full static-analysis result.
	Analysis *analysis.Result
	// PSEs is the PSE table indexed by ID (index 0 is the raw PSE).
	PSEs []PSE
	// Code is the closure-compiled program, lowered once here with a
	// watch set of exactly the edges the partition hooks act on: the PSE
	// edges plus the edges into non-exit StopNodes. All other edges run
	// inside fused superinstructions with no hook dispatch.
	Code *interp.Code
	// Engine selects the execution engine for all endpoints built on this
	// handler; the zero value is EngineCompiled.
	Engine Engine

	pseByEdge map[analysis.Edge]int32

	// cuts memoizes ConvexCuts per candidate cap; cutEnumerations counts
	// the enumerations actually run. Both guarded by cutsMu.
	cutsMu          sync.Mutex
	cuts            map[int][][]int32
	cutEnumerations int
}

// Compile analyses prog under the model and builds the PSE table. The
// oracle decides which callables are native (typically the receiver-side
// interp.Registry).
//
// Handlers whose control flow defeats TargetPath enumeration (an
// exponential number of paths) degrade gracefully: they compile with only
// the synthetic raw PSE, so every event ships unmodulated — correct, just
// unoptimized.
func Compile(prog *mir.Program, classes *mir.ClassTable, oracle analysis.NativeOracle, model costmodel.Model) (*Compiled, error) {
	ug, err := analysis.BuildUnitGraph(prog)
	if err != nil {
		return nil, fmt.Errorf("partition: compile %s: %w", prog.Name, err)
	}
	live := analysis.ComputeLiveness(ug)
	res, err := analysis.Analyze(ug, oracle, model.StaticCost(prog, classes, live), analysis.Options{})
	if err != nil {
		// Degrade to a raw-only handler on path explosion; real
		// analysis failures still surface.
		res, err = analysis.AnalyzeWithoutPaths(ug, oracle)
		if err != nil {
			return nil, fmt.Errorf("partition: compile %s: %w", prog.Name, err)
		}
	}
	c := &Compiled{
		Prog:      prog,
		Classes:   classes,
		Model:     model,
		Analysis:  res,
		pseByEdge: make(map[analysis.Edge]int32, len(res.PSESet)+1),
	}
	rawVars := make([]string, len(prog.Params))
	copy(rawVars, prog.Params)
	c.PSEs = append(c.PSEs, PSE{
		ID:   RawPSEID,
		Edge: analysis.Edge{From: -1, To: 0},
		Vars: rawVars,
		// The raw cut ships the whole event: fully dynamic.
		Static: analysis.CostDesc{Vars: analysis.NewVarSet(prog.Params...)},
	})
	for _, e := range res.PSESet {
		id := int32(len(c.PSEs))
		vars := res.Inter[e].Sorted()
		c.PSEs = append(c.PSEs, PSE{ID: id, Edge: e, Vars: vars, Static: res.Cost[e]})
		c.pseByEdge[e] = id
	}
	c.Code, err = interp.Compile(prog, interp.CompileOptions{Watch: c.watchSet()})
	if err != nil {
		return nil, fmt.Errorf("partition: compile %s: %w", prog.Name, err)
	}
	wire.InternNames(c.wireNames()...)
	return c, nil
}

// wireNames lists the names this handler's messages carry — the handler,
// its classes and their fields, and every PSE's live variables — for the
// wire decoder to intern.
func (c *Compiled) wireNames() []string {
	names := []string{c.Prog.Name}
	if c.Classes != nil {
		for _, cn := range c.Classes.Names() {
			names = append(names, cn)
			def, _ := c.Classes.Lookup(cn)
			for _, f := range def.Fields {
				names = append(names, f.Name)
			}
		}
	}
	for _, p := range c.PSEs {
		names = append(names, p.Vars...)
	}
	return names
}

// watchSet collects the edges the runtime hooks must observe: every PSE
// edge (split and profile decisions) and every edge into a non-exit
// StopNode (defensive splits). The set is always non-nil — a nil watch set
// would make interp.Compile watch every edge.
func (c *Compiled) watchSet() []interp.Edge {
	seen := make(map[analysis.Edge]bool)
	watch := make([]interp.Edge, 0, len(c.pseByEdge))
	add := func(e analysis.Edge) {
		if !seen[e] {
			seen[e] = true
			watch = append(watch, interp.Edge{From: e.From, To: e.To})
		}
	}
	for e := range c.pseByEdge {
		add(e)
	}
	ug := c.Analysis.UG
	for _, e := range ug.Edges() {
		if !ug.IsExit(e.To) && c.Analysis.Stops[e.To] {
			add(e)
		}
	}
	return watch
}

// PSEByEdge resolves a UG edge to its PSE id.
func (c *Compiled) PSEByEdge(e analysis.Edge) (int32, bool) {
	id, ok := c.pseByEdge[e]
	return id, ok
}

// PSE returns the PSE with the given id.
func (c *Compiled) PSE(id int32) (*PSE, bool) {
	if id < 0 || int(id) >= len(c.PSEs) {
		return nil, false
	}
	return &c.PSEs[id], true
}

// NumPSEs returns the PSE count including the raw PSE.
func (c *Compiled) NumPSEs() int { return len(c.PSEs) }

// InterAt computes the hand-over set of an arbitrary UG edge (used for
// forced splits at edges that are not PSEs).
func (c *Compiled) InterAt(e analysis.Edge) []string {
	return c.Analysis.Live.Inter(e).Sorted()
}

// ValidateSplitSet checks that the given split ids form a valid partition:
// every path from the start node to a StopNode crosses a flagged edge (or
// the raw PSE is flagged, which always cuts everything).
func (c *Compiled) ValidateSplitSet(ids []int32) error {
	flag := make(map[int32]bool, len(ids))
	for _, id := range ids {
		if _, ok := c.PSE(id); !ok {
			return fmt.Errorf("partition: unknown PSE id %d", id)
		}
		flag[id] = true
	}
	if flag[RawPSEID] {
		return nil
	}
	// DFS from start avoiding flagged edges; reaching a StopNode means
	// the cut leaks.
	ug := c.Analysis.UG
	seen := make(map[int]bool)
	stack := []int{ug.Start}
	seen[ug.Start] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.Analysis.Stops[u] {
			return fmt.Errorf("partition: split set %v does not cut node %d (%s)", ids, u, ug.NodeString(u))
		}
		for _, v := range ug.G.Succ(u) {
			if id, ok := c.pseByEdge[analysis.Edge{From: u, To: v}]; ok && flag[id] {
				continue
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return nil
}

// SortedIDs returns a copy of ids in ascending order.
func SortedIDs(ids []int32) []int32 {
	out := make([]int32, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
