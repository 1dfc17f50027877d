package rel

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is an ordered list of attribute names. Attribute names are
// case-sensitive and must be unique within a schema.
type Schema []string

// NewSchema builds a schema and panics on duplicate attribute names;
// schemas are almost always compile-time constants in callers, so a panic
// is the appropriate failure mode.
func NewSchema(attrs ...string) Schema {
	s := Schema(attrs)
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if seen[a] {
			panic(fmt.Sprintf("rel: duplicate attribute %q in schema", a))
		}
		seen[a] = true
	}
	return s
}

// Index returns the position of attribute a, or -1 if absent.
func (s Schema) Index(a string) int {
	for i, name := range s {
		if name == a {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains attribute a.
func (s Schema) Has(a string) bool { return s.Index(a) >= 0 }

// Equal reports whether two schemas have the same attributes in the same
// order.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// Common returns the attribute names present in both schemas, in s-order.
// It is used by natural join.
func (s Schema) Common(t Schema) []string {
	var out []string
	for _, a := range s {
		if t.Has(a) {
			out = append(out, a)
		}
	}
	return out
}

// Tuple is an ordered list of values positionally matching a Schema.
type Tuple []Value

// Key returns a canonical encoding of the tuple usable as a map key.
func (t Tuple) Key() string { return string(t.AppendKey(nil)) }

// AppendKey appends the tuple's Key to dst: the values' keys joined by
// '|', with every '|' and '\' inside a string value escaped by a '\' so
// keys stay injective.
func (t Tuple) AppendKey(dst []byte) []byte {
	for i, v := range t {
		if i > 0 {
			dst = append(dst, '|')
		}
		if v.kind != StringKind || !strings.ContainsAny(v.s, `|\`) {
			dst = v.appendKey(dst)
			continue
		}
		dst = append(dst, 's')
		for j := 0; j < len(v.s); j++ {
			if v.s[j] == '|' || v.s[j] == '\\' {
				dst = append(dst, '\\')
			}
			dst = append(dst, v.s[j])
		}
	}
	return dst
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// Equal reports whether two tuples are value-equal position by position.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !Equal(t[i], u[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple for display.
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Compare orders tuples lexicographically; shorter tuples sort first on
// ties.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := Compare(t[i], u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	default:
		return 0
	}
}

// Relation is a set-semantics relation: a schema plus a set of tuples.
// Insertion order is preserved for display, but duplicates (under value
// equality) are collapsed through the hashed Index, so membership tests
// allocate nothing.
type Relation struct {
	schema Schema
	tuples []Tuple
	idx    Index // tuple hash -> positions in tuples
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{schema: schema.Clone(), idx: NewIndex(0)}
}

// FromRows builds a relation from a schema and rows; duplicates collapse.
func FromRows(schema Schema, rows ...Tuple) *Relation {
	r := NewRelation(schema)
	for _, t := range rows {
		r.Add(t)
	}
	return r
}

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of distinct tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuples returns the relation's tuples in insertion order. The returned
// slice must not be modified.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// Add inserts a tuple (set semantics). It reports whether the tuple was
// new. It panics when the tuple arity does not match the schema, which is
// always a programming error.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("rel: tuple arity %d does not match schema %v", len(t), r.schema))
	}
	return r.addHashed(t.Hash(), t, true)
}

// find returns the position of the stored tuple equal to t under hash h,
// or -1, together with the head of h's chain for addHashed's link.
func (r *Relation) find(h uint64, t Tuple) (pos, head int32) {
	head = r.idx.First(h)
	for p := head; p >= 0; p = r.idx.Next(p) {
		if r.tuples[p].Equal(t) {
			return p, head
		}
	}
	return -1, head
}

// addHashed inserts t under its precomputed hash, cloning only when the
// caller retains ownership.
func (r *Relation) addHashed(h uint64, t Tuple, clone bool) bool {
	pos, head := r.find(h, t)
	if pos >= 0 {
		return false
	}
	r.idx.Append(h, head)
	if clone {
		t = t.Clone()
	}
	r.tuples = append(r.tuples, t)
	return true
}

// AddOwned inserts a tuple the caller relinquishes ownership of: no
// defensive clone is taken. Operators that construct fresh rows use it to
// avoid one allocation per emitted tuple.
func (r *Relation) AddOwned(t Tuple) bool {
	if len(t) != len(r.schema) {
		panic(fmt.Sprintf("rel: tuple arity %d does not match schema %v", len(t), r.schema))
	}
	return r.addHashed(t.Hash(), t, false)
}

// Pos returns the position in Tuples of the stored tuple equal to t, or
// -1. Callers keeping per-tuple data in a parallel slice address it by
// this position.
func (r *Relation) Pos(t Tuple) int {
	pos, _ := r.find(t.Hash(), t)
	return int(pos)
}

// Contains reports whether the relation contains the tuple.
func (r *Relation) Contains(t Tuple) bool { return r.Pos(t) >= 0 }

// Value returns the value of attribute a in tuple t under this relation's
// schema. It panics if the attribute does not exist.
func (r *Relation) Value(t Tuple, a string) Value {
	i := r.schema.Index(a)
	if i < 0 {
		panic(fmt.Sprintf("rel: attribute %q not in schema %v", a, r.schema))
	}
	return t[i]
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.schema)
	for _, t := range r.tuples {
		out.Add(t)
	}
	return out
}

// Equal reports whether two relations have equal schemas and equal tuple
// sets (order-insensitive).
func (r *Relation) Equal(o *Relation) bool {
	if !r.schema.Equal(o.schema) || r.Len() != o.Len() {
		return false
	}
	for _, t := range r.tuples {
		if !o.Contains(t) {
			return false
		}
	}
	return true
}

// Sorted returns the tuples in canonical (lexicographic) order; used for
// stable display and golden tests.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// String renders the relation as a small text table.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.schema, "\t"))
	b.WriteByte('\n')
	for _, t := range r.Sorted() {
		parts := make([]string, len(t))
		for i, v := range t {
			parts[i] = v.String()
		}
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

// Project returns the relation restricted to the named attributes
// (deduplicating under set semantics).
func (r *Relation) Project(attrs ...string) *Relation {
	idx := make([]int, len(attrs))
	for i, a := range attrs {
		j := r.schema.Index(a)
		if j < 0 {
			panic(fmt.Sprintf("rel: project on missing attribute %q", a))
		}
		idx[i] = j
	}
	out := NewRelation(NewSchema(attrs...))
	for _, t := range r.tuples {
		nt := make(Tuple, len(idx))
		for i, j := range idx {
			nt[i] = t[j]
		}
		out.AddOwned(nt)
	}
	return out
}
