package wire

import "methodpart/internal/mir"

// Schema is the wire layout both ends of a subscription compile from one
// program before the first frame: the field order of every class the
// program declares. An object of a declared class whose field set is
// exactly the declared one travels as its class index and its field values
// in declared order, with no class or field names (tagClass). Any other
// object — an undeclared class, a field set that differs from the
// declaration, or any value encoded without a schema — keeps the
// self-describing tagged form (tagObject).
//
// A Schema is immutable; the nil *Schema is valid and declares nothing.
type Schema struct {
	classes []classLayout
	index   map[string]int
}

type classLayout struct {
	name   string
	fields []string
}

// NewSchema lays out the classes of t: class index i is the i-th name of
// t.Names(), fields in declaration order.
func NewSchema(t *mir.ClassTable) *Schema {
	names := t.Names()
	s := &Schema{classes: make([]classLayout, len(names)), index: make(map[string]int, len(names))}
	for i, n := range names {
		def, _ := t.Lookup(n)
		cl := classLayout{name: n, fields: make([]string, len(def.Fields))}
		for j, f := range def.Fields {
			cl.fields[j] = f.Name
		}
		s.classes[i] = cl
		s.index[n] = i
	}
	return s
}

// layoutOf returns the class index and layout obj travels under, or false
// when obj takes the tagged form. The encoder and the Sizer both decide
// here, so a priced object and its encoding always agree.
func (s *Schema) layoutOf(obj *mir.Object) (int, *classLayout, bool) {
	if s == nil {
		return 0, nil, false
	}
	i, ok := s.index[obj.Class]
	if !ok {
		return 0, nil, false
	}
	cl := &s.classes[i]
	if len(obj.Fields) != len(cl.fields) {
		return 0, nil, false
	}
	for _, f := range cl.fields {
		if _, ok := obj.Fields[f]; !ok {
			return 0, nil, false
		}
	}
	return i, cl, true
}
