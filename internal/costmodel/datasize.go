package costmodel

import (
	"math"

	"methodpart/internal/analysis"
	"methodpart/internal/mir"
	"methodpart/internal/wire"
)

// DataSizeName is the wire name of the data-size model.
const DataSizeName = "datasize"

// DataSize is the §4.1 cost model: the cost of a PSE is the amount of data
// the continuation message carries across the network. Scalar live
// variables contribute statically determinable sizes; arrays, strings and
// objects contribute only at runtime and are listed as non-deterministic
// variables, giving the comparative lower bounds the static pruning uses.
type DataSize struct {
	// VarOverhead is the per-variable wire overhead (name length prefix)
	// included in the deterministic part.
	VarOverhead int64
}

// NewDataSize returns the model with standard wire overheads.
func NewDataSize() *DataSize { return &DataSize{VarOverhead: 4} }

// Name implements Model.
func (*DataSize) Name() string { return DataSizeName }

// sizeLattice is the per-register static size lattice: unknown (bottom),
// fixed size, or dynamic (top).
type sizeLattice struct {
	known bool
	dyn   bool
	size  int64
}

func fixedSize(n int64) sizeLattice { return sizeLattice{known: true, size: n} }

var dynSize = sizeLattice{known: true, dyn: true}

func (a sizeLattice) join(b sizeLattice) sizeLattice {
	switch {
	case !a.known:
		return b
	case !b.known:
		return a
	case a.dyn || b.dyn:
		return dynSize
	case a.size == b.size:
		return a
	default:
		return dynSize
	}
}

// Static scalar sizes. A float is 9 bytes on the wire; an int is a varint
// of 2 to 11, which no static analysis can pin down, so every int is
// estimated at a float's 9 — the fixed width profiling then corrects.
const (
	scalarBoolSize = 2 // tag + bool
	scalarNumSize  = 9 // tag + 8 bytes
)

// litSize is the static size of a constant: the scalar estimates above for
// numbers and bools, the exact encoded size otherwise.
func litSize(v mir.Value) int64 {
	switch v.(type) {
	case mir.Int, mir.Float:
		return scalarNumSize
	case mir.Bool:
		return scalarBoolSize
	}
	return wire.SizeOf(nil, v)
}

// inferSizes computes, for every register, whether its encoded size is
// statically determinable, via a flow-insensitive fixpoint over all
// definitions.
func inferSizes(prog *mir.Program, classes *mir.ClassTable) map[string]sizeLattice {
	sz := make(map[string]sizeLattice)
	get := func(r string) sizeLattice { return sz[r] }

	fieldSize := func(field string) sizeLattice {
		// If every registered class declaring this field agrees on a
		// fixed-size kind, the size is determinable.
		var acc sizeLattice
		found := false
		for _, name := range classes.Names() {
			def, _ := classes.Lookup(name)
			f, ok := def.Field(field)
			if !ok {
				continue
			}
			found = true
			switch f.Kind {
			case mir.KindBool:
				acc = acc.join(fixedSize(scalarBoolSize))
			case mir.KindInt, mir.KindFloat:
				acc = acc.join(fixedSize(scalarNumSize))
			default:
				acc = acc.join(dynSize)
			}
		}
		if !found {
			return dynSize
		}
		return acc
	}

	// Parameters are dynamic: their runtime content is unknown.
	for _, prm := range prog.Params {
		sz[prm] = dynSize
	}
	changed := true
	for changed {
		changed = false
		for i := range prog.Instrs {
			in := &prog.Instrs[i]
			var out sizeLattice
			switch in.Op {
			case mir.OpConst:
				out = fixedSize(litSize(in.Lit))
			case mir.OpMove, mir.OpCast:
				out = get(in.Src)
			case mir.OpBin:
				switch in.Bin {
				case mir.BinEq, mir.BinNe, mir.BinLt, mir.BinLe,
					mir.BinGt, mir.BinGe, mir.BinAnd, mir.BinOr:
					out = fixedSize(scalarBoolSize)
				default:
					a, b := get(in.Src), get(in.Src2)
					if a.known && !a.dyn && a.size == scalarNumSize &&
						b.known && !b.dyn && b.size == scalarNumSize {
						out = fixedSize(scalarNumSize)
					} else {
						out = dynSize
					}
				}
			case mir.OpUn:
				switch in.Un {
				case mir.UnNot:
					out = fixedSize(scalarBoolSize)
				case mir.UnI2F, mir.UnF2I:
					out = fixedSize(scalarNumSize)
				default:
					out = get(in.Src)
				}
			case mir.OpInstanceOf:
				out = fixedSize(scalarBoolSize)
			case mir.OpLen, mir.OpArrGet:
				out = fixedSize(scalarNumSize)
			case mir.OpGetField:
				out = fieldSize(in.Field)
			case mir.OpNew, mir.OpNewArray, mir.OpCall, mir.OpGetGlobal:
				out = dynSize
			default:
				continue
			}
			for _, d := range in.Defs() {
				next := sz[d].join(out)
				if next != sz[d] {
					sz[d] = next
					changed = true
				}
			}
		}
	}
	return sz
}

// StaticCost implements Model. The deterministic part is the per-variable
// name overhead plus the sizes of fixed-size variables — a lower bound on
// the continuation size; dynamically sized variables go into Vars for
// comparative pruning and runtime profiling.
func (m *DataSize) StaticCost(prog *mir.Program, classes *mir.ClassTable, live *analysis.Liveness) analysis.CostFunc {
	sizes := inferSizes(prog, classes)
	return func(e analysis.Edge, inter analysis.VarSet) analysis.CostDesc {
		desc := analysis.CostDesc{Vars: make(analysis.VarSet)}
		for v := range inter {
			desc.Det += m.VarOverhead + int64(len(v))
			s := sizes[v]
			if s.known && !s.dyn {
				desc.Det += s.size
			} else {
				desc.Vars[v] = true
			}
		}
		return desc
	}
}

// Capacity implements Model: expected bytes shipped through this PSE per
// message, weighted by the probability the path crosses it.
func (m *DataSize) Capacity(stat Stat, env Environment) int64 {
	if stat.Count == 0 {
		return 1
	}
	c := stat.Prob * stat.Bytes
	if c < 1 || math.IsNaN(c) {
		return 1
	}
	return int64(c)
}

// StaticCapacity implements Model: the deterministic lower bound plus a
// default estimate per unprofiled dynamic variable.
func (m *DataSize) StaticCapacity(c analysis.CostDesc) int64 {
	const defaultDynSize = 256
	return c.Det + int64(len(c.Vars))*defaultDynSize
}
