// Package rules implements LeJIT's network-rule language: a small DSL in
// which operators (or the automatic miner) express domain constraints such as
// the paper's R1–R3, plus a compiler that turns rules into smt.Formula values
// and a concrete evaluator used for violation checking.
//
// Example rule file (the paper's §2.1 telemetry-imputation rules):
//
//	const BW = 60
//	const T  = 5
//
//	rule r1: forall t in 0..T-1: 0 <= I[t] and I[t] <= BW
//	rule r2: sum(I) == TotalIngress
//	rule r3: Congestion > 0 -> max(I) >= BW/2
//
// Rules are written against a Schema that declares each telemetry field,
// its shape (scalar or fixed-length vector), and its finite integer domain.
package rules

import "fmt"

// FieldKind distinguishes scalar fields (one value per record, e.g.
// TotalIngress) from vector fields (a fixed-length time series per record,
// e.g. the fine-grained ingress I[0..T-1]).
type FieldKind int

const (
	// Scalar is a single-value field.
	Scalar FieldKind = iota
	// Vector is a fixed-length time-indexed field.
	Vector
)

// Field declares one telemetry field.
type Field struct {
	Name string
	Kind FieldKind
	// Len is the vector length; 1 for scalars.
	Len int
	// Lo, Hi bound every element's value (inclusive). Finite bounds are
	// required: they make the SMT solver complete (DESIGN.md §4).
	Lo, Hi int64
}

// Schema is an ordered collection of fields describing one record shape.
type Schema struct {
	fields []Field
	index  map[string]int
}

// NewSchema builds a schema from the given fields. It returns an error on
// duplicate names, non-positive lengths, or empty domains.
func NewSchema(fields ...Field) (*Schema, error) {
	s := &Schema{index: make(map[string]int, len(fields))}
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("rules: field with empty name")
		}
		if _, dup := s.index[f.Name]; dup {
			return nil, fmt.Errorf("rules: duplicate field %q", f.Name)
		}
		if f.Kind == Scalar {
			f.Len = 1
		}
		if f.Len < 1 {
			return nil, fmt.Errorf("rules: field %q has length %d", f.Name, f.Len)
		}
		if f.Lo > f.Hi {
			return nil, fmt.Errorf("rules: field %q has empty domain [%d,%d]", f.Name, f.Lo, f.Hi)
		}
		s.index[f.Name] = len(s.fields)
		s.fields = append(s.fields, f)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically-known schemas.
func MustSchema(fields ...Field) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Field looks a field up by name.
func (s *Schema) Field(name string) (Field, bool) {
	i, ok := s.index[name]
	if !ok {
		return Field{}, false
	}
	return s.fields[i], true
}

// Fields returns the fields in declaration order.
func (s *Schema) Fields() []Field { return append([]Field(nil), s.fields...) }

// Record holds one concrete record: field name → values (length 1 for
// scalars, Field.Len for vectors).
type Record map[string][]int64

// Validate checks that rec matches the schema's shapes and domains.
func (s *Schema) Validate(rec Record) error {
	for _, f := range s.fields {
		vs, ok := rec[f.Name]
		if !ok {
			return fmt.Errorf("rules: record missing field %q", f.Name)
		}
		if len(vs) != f.Len {
			return fmt.Errorf("rules: field %q has %d values, want %d", f.Name, len(vs), f.Len)
		}
		for i, v := range vs {
			if v < f.Lo || v > f.Hi {
				return fmt.Errorf("rules: %s[%d] = %d outside [%d,%d]", f.Name, i, v, f.Lo, f.Hi)
			}
		}
	}
	for name := range rec {
		if _, ok := s.index[name]; !ok {
			return fmt.Errorf("rules: record has unknown field %q", name)
		}
	}
	return nil
}

// Clone deep-copies a record.
func (r Record) Clone() Record {
	out := make(Record, len(r))
	for k, v := range r {
		out[k] = append([]int64(nil), v...)
	}
	return out
}
