// Package vars implements the probability substrate of U-relational
// databases (Section 3 of the paper): a finite set of independent discrete
// random variables with finite domains, represented by the table
// W(Var, Dom, P), and partial functions f : Var → Dom ("assignments") that
// annotate U-relation tuples.
//
// The weight of a partial function f is p_f = Π_X Pr[X = f(X)] (Eq. 2 of
// the paper), and two partial functions are consistent when they agree on
// the variables both define.
package vars

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rel"
)

// Var identifies a random variable in a Table.
type Var int32

// Info describes one random variable: its identity, unique within its
// table, and the probability of each domain alternative, indexed
// 0..len(Probs)-1. The registration that added it renders its name on
// demand (Table.Name).
type Info struct {
	ID    uint64
	Probs []float64
	names *Names // nil renders from ID
	at    int32  // the variable's index in its registration
}

// Names renders the display names of one registration's variables by
// their index in it: Var names variable i, Alt (nil: the index) its
// alternative alt. Only display — Table.String, Assignment.Format — asks;
// identity, order and the cluster wire use Info.ID.
type Names struct {
	Var func(i int) string
	Alt func(i, alt int) string
}

// Table is the W relation: the registry of independent random variables.
// The zero value is an empty table ready for use.
type Table struct {
	infos   []Info
	clashes int
}

// NewTable returns an empty variable table.
func NewTable() *Table { return &Table{} }

// Add registers one variable with the given display name, alternative
// probabilities (copied) and optional alternative names; its identity is
// a hash of the name.
func (t *Table) Add(name string, probs []float64, altNames []string) Var {
	if altNames != nil && len(altNames) != len(probs) {
		panic(fmt.Sprintf("vars: variable %q has %d alt names for %d alternatives", name, len(altNames), len(probs)))
	}
	names := &Names{Var: func(int) string { return name }}
	if altNames != nil {
		names.Alt = func(_, alt int) string { return altNames[alt] }
	}
	return t.Register([]uint64{rel.HashString(rel.HashSeed, name)}, slices.Clone(probs), []int32{0, int32(len(probs))}, names)
}

// RowID is the identity of the variable that row of relation (or
// registration) name introduces, mixed with the column for an
// attribute-level variable.
func RowID(name string, row int, col ...int) uint64 {
	h := rel.HashCombine(rel.HashString(rel.HashSeed, name), uint64(row))
	for _, c := range col {
		h = rel.HashCombine(h, uint64(c))
	}
	return h
}

// Register adds the variables of one registration and returns the first:
// variable i has identity ids[i] and the alternative probabilities
// probs[start[i]:start[i+1]], and names renders it under index i.
// Probabilities must be positive and sum to 1 within a small tolerance;
// Register renormalizes them in place and keeps probs. It panics on
// invalid input: callers validate weights first, so failures here are
// programming errors. An identity the table already holds is a clash: it
// never panics and never aliases two variables (see unique). Register
// sorts ids.
func (t *Table) Register(ids []uint64, probs []float64, start []int32, names *Names) Var {
	n := len(t.infos)
	t.infos = slices.Grow(t.infos, len(ids))
	for i, id := range ids {
		p := probs[start[i]:start[i+1]:start[i+1]]
		sum, ok := 0.0, len(p) > 0
		for _, x := range p {
			sum += x
			ok = ok && x > 0
		}
		if !ok || sum < 1-1e-9 || sum > 1+1e-9 {
			panic(fmt.Sprintf("vars: variable %d has probabilities %v, want positive ones summing to 1", n+i, p))
		}
		for j := range p {
			p[j] /= sum
		}
		t.infos = append(t.infos, Info{ID: id, Probs: p, names: names, at: int32(i)})
	}
	t.unique(n, ids)
	return Var(n)
}

// unique makes the identities of infos[n:], which ids lists, distinct
// from each other and from those of infos[:n]. The common case sorts ids
// and binary-searches it once per older variable; only a clash builds a
// set and remixes each taken identity with its variable's index until it
// is fresh, counting each remix.
func (t *Table) unique(n int, ids []uint64) {
	slices.Sort(ids)
	clash := false
	for i := 1; i < len(ids) && !clash; i++ {
		clash = ids[i] == ids[i-1]
	}
	for j := 0; j < n && !clash && len(ids) > 0; j++ {
		_, clash = slices.BinarySearch(ids, t.infos[j].ID)
	}
	if !clash {
		return
	}
	seen := make(map[uint64]bool, len(t.infos))
	for i := range t.infos {
		for i >= n && seen[t.infos[i].ID] {
			t.infos[i].ID = rel.HashCombine(t.infos[i].ID, uint64(i))
			t.clashes++
		}
		seen[t.infos[i].ID] = true
	}
}

// Clashes returns how many identities registrations found taken.
func (t *Table) Clashes() int { return t.clashes }

// RestoreTable rebuilds a table from variable descriptors received over a
// trusted channel (the cluster wire protocol). Unlike Register it performs
// no validation and — critically — no renormalization: the probabilities
// are installed bit-for-bit as shipped, so a shard-side estimator consumes
// exactly the same float64 stream as the coordinator's and chunk counts
// stay bit-identical across the network. The infos slice is retained.
func RestoreTable(infos []Info) *Table { return &Table{infos: infos} }

// Len returns the number of registered variables.
func (t *Table) Len() int { return len(t.infos) }

// Since returns the descriptors of the variables registered from id n on.
func (t *Table) Since(n int) []Info { return slices.Clone(t.infos[n:]) }

// Append registers variables Since returned, verbatim: their probability
// bits stay, and at the table length they left, their ids too. Their
// identities stay unless one clashes with a variable already here.
func (t *Table) Append(infos []Info) {
	n := len(t.infos)
	if n == 0 {
		t.infos = slices.Clip(infos) // shared: a later Register copies first
		return
	}
	t.infos = append(t.infos, infos...)
	ids := make([]uint64, len(infos))
	for i, in := range infos {
		ids[i] = in.ID
	}
	t.unique(n, ids)
}

// Info returns the descriptor of variable v.
func (t *Table) Info(v Var) Info { return t.infos[v] }

// Prob returns Pr[v = alt].
func (t *Table) Prob(v Var, alt int) float64 { return t.infos[v].Probs[alt] }

// DomSize returns |Dom_v|.
func (t *Table) DomSize(v Var) int { return len(t.infos[v].Probs) }

// Name renders the display name of v; a variable restored without its
// registration renders as '#' and its identity in hex.
func (t *Table) Name(v Var) string {
	if in := t.infos[v]; in.names != nil {
		return in.names.Var(int(in.at))
	}
	return "#" + strconv.FormatUint(t.infos[v].ID, 16)
}

// AltName renders the display name of alternative alt of v.
func (t *Table) AltName(v Var, alt int) string {
	if in := t.infos[v]; in.names != nil && in.names.Alt != nil {
		return in.names.Alt(int(in.at), alt)
	}
	return strconv.Itoa(alt)
}

// Clone returns a table whose later registrations leave t untouched.
// U-relational query evaluation clones the table before repair-key
// introduces new variables, so the input database is never mutated. The
// descriptors are shared: probabilities are never written after Register,
// and the clipped slice makes the clone's first Register copy it.
func (t *Table) Clone() *Table {
	return &Table{infos: slices.Clip(t.infos), clashes: t.clashes}
}

// WorldCount returns the number of total assignments Π|Dom_X|, or -1 on
// overflow. Used by the possible-worlds expansion to guard against
// accidentally exponential tests.
func (t *Table) WorldCount() int64 {
	n := int64(1)
	for _, in := range t.infos {
		n *= int64(len(in.Probs))
		if n < 0 || n > 1<<40 {
			return -1
		}
	}
	return n
}

// String renders the table in the paper's W(Var, Dom, P) form.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("Var\tDom\tP\n")
	for i, in := range t.infos {
		for a, p := range in.Probs {
			fmt.Fprintf(&b, "%s\t%s\t%g\n", t.Name(Var(i)), t.AltName(Var(i), a), p)
		}
	}
	return b.String()
}

// Binding is one (variable, alternative) pair of an assignment.
type Binding struct {
	Var Var
	Alt int32
}

// Assignment is a partial function Var → Dom, stored as bindings sorted by
// variable. The empty assignment represents "all worlds" (weight 1); a
// classical complete relation is the special case where every tuple
// carries the empty assignment.
type Assignment []Binding

// NewAssignment builds an assignment from bindings, sorting them and
// rejecting conflicting duplicates (same variable, different alternative).
func NewAssignment(bs ...Binding) (Assignment, error) {
	a := append(Assignment(nil), bs...)
	sort.Slice(a, func(i, j int) bool { return a[i].Var < a[j].Var })
	out := a[:0]
	for i, b := range a {
		if i > 0 && a[i-1].Var == b.Var {
			if a[i-1].Alt != b.Alt {
				return nil, fmt.Errorf("vars: conflicting bindings for variable %d", b.Var)
			}
			continue
		}
		out = append(out, b)
	}
	return out, nil
}

// MustAssignment is NewAssignment for inputs known to be conflict-free.
func MustAssignment(bs ...Binding) Assignment {
	a, err := NewAssignment(bs...)
	if err != nil {
		panic(err)
	}
	return a
}

// Len returns the number of bound variables.
func (a Assignment) Len() int { return len(a) }

// Get returns the alternative bound for v and whether v is bound.
func (a Assignment) Get(v Var) (int32, bool) {
	i := sort.Search(len(a), func(i int) bool { return a[i].Var >= v })
	if i < len(a) && a[i].Var == v {
		return a[i].Alt, true
	}
	return 0, false
}

// Weight returns p_f = Π Pr[X = f(X)] (paper Eq. 2).
func (a Assignment) Weight(t *Table) float64 {
	w := 1.0
	for _, b := range a {
		w *= t.Prob(b.Var, int(b.Alt))
	}
	return w
}

// ConsistentWith reports whether two partial functions agree on the
// variables both define (the paper's consistency relation).
func (a Assignment) ConsistentWith(b Assignment) bool {
	_, ok := a.UnionLen(b)
	return ok
}

// UnionLen returns the length of a.Union(b) without building it; ok is
// false when a and b conflict.
func (a Assignment) UnionLen(b Assignment) (n int, ok bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Var < b[j].Var:
			i++
		case a[i].Var > b[j].Var:
			j++
		default:
			if a[i].Alt != b[j].Alt {
				return 0, false
			}
			i++
			j++
			n--
		}
	}
	return n + len(a) + len(b), true
}

// Union merges two consistent assignments; ok is false when they
// conflict. Union implements the D-column concatenation of the product
// translation [[R × S]]. When one side is empty the other is returned
// as it is: stored assignments are never mutated, so sharing one is safe.
func (a Assignment) Union(b Assignment) (Assignment, bool) {
	if len(a) == 0 {
		return b, true
	}
	if len(b) == 0 {
		return a, true
	}
	return a.AppendUnion(make(Assignment, 0, len(a)+len(b)), b)
}

// AppendUnion appends the merge of a and b to dst, as Union builds it; ok
// is false when they conflict. A dst with room for len(a)+len(b) more
// bindings is written in place, so a caller can carve merges from one
// slab.
func (a Assignment) AppendUnion(dst, b Assignment) (Assignment, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Var < b[j].Var:
			dst = append(dst, a[i])
			i++
		case a[i].Var > b[j].Var:
			dst = append(dst, b[j])
			j++
		default:
			if a[i].Alt != b[j].Alt {
				return nil, false
			}
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst, true
}

// Without returns the assignment with variable v removed.
func (a Assignment) Without(v Var) Assignment {
	out := make(Assignment, 0, len(a))
	for _, b := range a {
		if b.Var != v {
			out = append(out, b)
		}
	}
	return out
}

// With returns the assignment extended/overwritten with v = alt, in one
// allocation: the binding goes in at its sorted position.
func (a Assignment) With(v Var, alt int32) Assignment {
	return a.AppendWith(make(Assignment, 0, len(a)+1), v, alt)
}

// AppendWith appends a extended/overwritten with v = alt to dst, as With
// builds it. A dst with room for len(a)+1 more bindings is written in
// place.
func (a Assignment) AppendWith(dst Assignment, v Var, alt int32) Assignment {
	i, bound := slices.BinarySearchFunc(a, v, func(b Binding, v Var) int { return cmp.Compare(b.Var, v) })
	dst = append(append(dst, a[:i]...), Binding{Var: v, Alt: alt})
	if bound {
		i++
	}
	return append(dst, a[i:]...)
}

// Vars appends the variables bound by a to dst.
func (a Assignment) Vars(dst []Var) []Var {
	for _, b := range a {
		dst = append(dst, b.Var)
	}
	return dst
}

// Hash returns a 64-bit hash of the assignment, consistent with Equal:
// equal binding lists hash identically. Hot-path grouping and dedup key on
// it instead of the allocating Key() string. It folds bindings with the
// same combination primitive as the tuple hashes (rel.HashCombine), so
// composite pair hashes mix one hash family.
func (a Assignment) Hash() uint64 {
	h := rel.HashSeed
	for _, b := range a {
		h = rel.HashCombine(h, uint64(uint32(b.Var))<<32|uint64(uint32(b.Alt)))
	}
	return h
}

// Equal reports whether two assignments bind the same variables to the
// same alternatives (both are sorted by variable, so this is positional).
func (a Assignment) Equal(b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical encoding for use as a map key.
func (a Assignment) Key() string {
	var b strings.Builder
	for i, bind := range a {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(bind.Var)))
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(int(bind.Alt)))
	}
	return b.String()
}

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// String renders the assignment like {x=1, y=0} using variable names from
// t (or raw ids when t is nil).
func (a Assignment) Format(t *Table) string {
	if len(a) == 0 {
		return "{}"
	}
	parts := make([]string, len(a))
	for i, b := range a {
		if t != nil {
			parts[i] = fmt.Sprintf("%s=%s", t.Name(b.Var), t.AltName(b.Var, int(b.Alt)))
		} else {
			parts[i] = fmt.Sprintf("v%d=%d", b.Var, b.Alt)
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// World is a total assignment f* : Var → Dom, represented densely: entry i
// is the alternative chosen for variable i.
type World []int32

// Weight returns p_{f*}, the product of alternative probabilities over all
// variables in the table.
func (w World) Weight(t *Table) float64 {
	p := 1.0
	for v, alt := range w {
		p *= t.Prob(Var(v), int(alt))
	}
	return p
}

// Satisfies reports whether the world extends (is consistent with) the
// partial assignment: f* ∈ ω(f).
func (w World) Satisfies(a Assignment) bool {
	for _, b := range a {
		if int(b.Var) >= len(w) || w[b.Var] != b.Alt {
			return false
		}
	}
	return true
}

// EnumWorlds calls fn for every total assignment over the variables of t,
// with its weight. It panics when the world count exceeds limit (guarding
// tests against accidental exponential blowups); limit <= 0 means no
// check.
func EnumWorlds(t *Table, limit int64, fn func(w World, weight float64)) {
	if limit > 0 {
		if n := t.WorldCount(); n < 0 || n > limit {
			panic(fmt.Sprintf("vars: world count %d exceeds limit %d", n, limit))
		}
	}
	w := make(World, t.Len())
	var rec func(i int, weight float64)
	rec = func(i int, weight float64) {
		if i == t.Len() {
			fn(w, weight)
			return
		}
		for alt, p := range t.infos[i].Probs {
			w[i] = int32(alt)
			rec(i+1, weight*p)
		}
	}
	rec(0, 1.0)
}
