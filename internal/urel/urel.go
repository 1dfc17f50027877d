// Package urel implements U-relational databases, the representation
// system of Section 3 of the paper: each represented relation R(Ā) is
// stored as a relation U_R(D, Ā) whose D column holds a partial function
// f : Var → Dom over the independent random variables of a W table
// (vars.Table). A tuple t̄ is in R in possible world f* iff some
// ⟨f, t̄⟩ ∈ U_R has f consistent with f*.
//
// The package provides the parsimonious translation of the paper's
// operations onto U-relations: positive relational algebra, repair-key
// (which introduces fresh random variables), poss, cert, the complete
// difference −c, and exact confidence via the dnf package. The translation
// is validated against the possible-worlds semantics by the worlds package
// and the algebra evaluators.
package urel

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/vars"
)

// UTuple is one row of a U-relation: a partial assignment (the D column)
// plus the data tuple.
type UTuple struct {
	D   vars.Assignment
	Row rel.Tuple
}

// utHash is the 64-bit dedup key of a (D, row) pair; candidates it selects
// are confirmed by value equality (Relation.find), so set semantics are
// those of rel.Compare and vars.Assignment.Equal.
func utHash(d vars.Assignment, row rel.Tuple) uint64 {
	return rel.HashCombine(row.Hash(), d.Hash())
}

// Relation is a U-relation: a schema and a set of (D, tuple) pairs with
// set semantics on the pair, deduplicated through a rel.Index over the
// pair hashes. A relation stores no hashes: most are never read, so the
// index computes them when it is built.
//
// The index exists only once something probes the relation: operators that
// cannot merge two pairs (Select, −c, RepairKey, Project over a D-key
// input, FromComplete, WithColumn, hydrate) append without it and hash
// nothing. A published relation is never mutated — sub-plans are shared by
// concurrent evaluations through the engine's memo — so a probe of an input
// without an index builds a local one (probeIndex); only the owner, while
// still building the relation, grows its own (addPair).
type Relation struct {
	schema rel.Schema
	tuples []UTuple
	idx    rel.Index // pair hash -> positions in tuples; unbuilt until probed
	bytes  int64     // running footprint estimate, maintained on insert
	// dkey records that no two pairs share a D: RepairKey sets it, Select
	// and Project keep it (a projection of such pairs cannot merge two).
	// It survives spilling and the memo.
	dkey bool

	// Out-of-core state (see spill.go): when spilled, the tuple storage
	// above is dropped and sp locates the file holding the pairs; bytes
	// keeps the footprint estimate for budget re-accounting.
	sp      *spillState
	spilled bool
}

// NewRelation creates an empty U-relation with the given data schema (the
// D column is implicit).
func NewRelation(schema rel.Schema) *Relation {
	return &Relation{schema: schema.Clone()}
}

// FromComplete lifts a classical complete relation into a U-relation where
// every tuple carries the empty assignment (the zero-column D encoding of
// Section 3). r is a set, so its rows are appended without an index.
func FromComplete(r *rel.Relation) *Relation {
	out := NewRelation(r.Schema())
	out.reserve(r.Len())
	for _, t := range r.Tuples() {
		out.appendUnique(nil, t)
	}
	return out
}

// Schema returns the data schema.
func (r *Relation) Schema() rel.Schema { return r.schema }

// Len returns the number of distinct (D, tuple) pairs (known without
// rehydration for a spilled relation).
func (r *Relation) Len() int {
	if r.spilled {
		return r.sp.n
	}
	return len(r.tuples)
}

// DKey reports whether r is known to hold no two pairs with one D.
func (r *Relation) DKey() bool { return r.dkey }

// Bytes returns the relation's footprint estimate — value and condition
// payloads plus per-pair bookkeeping — maintained on insert, so always-on
// operator statistics cost no extra output pass.
func (r *Relation) Bytes() int64 { return r.bytes }

// Tuples returns the underlying rows; the slice must not be modified. It
// panics on a spilled relation — see mustResident.
func (r *Relation) Tuples() []UTuple {
	r.mustResident("Tuples")
	return r.tuples
}

// find returns the position of the stored pair equal to (d, row) under
// hash h in ix, r's index, or -1, together with the head of h's chain for
// addPair's link.
func (r *Relation) find(ix rel.Index, h uint64, d vars.Assignment, row rel.Tuple) (pos, head int32) {
	head = ix.First(h)
	for p := head; p >= 0; p = ix.Next(p) {
		if r.tuples[p].D.Equal(d) && r.tuples[p].Row.Equal(row) {
			return p, head
		}
	}
	return -1, head
}

// Add inserts a (D, tuple) pair under set semantics and reports whether it
// was new.
func (r *Relation) Add(d vars.Assignment, row rel.Tuple) bool {
	if len(row) != len(r.schema) {
		panic(fmt.Sprintf("urel: tuple arity %d does not match schema %v", len(row), r.schema))
	}
	return r.addPair(utHash(d, row), d, row, true)
}

// AddOwned inserts a (D, tuple) pair the caller relinquishes ownership
// of: no defensive clone is taken. Operators and evaluators that just
// built the pair use it to avoid two allocations per emitted tuple.
func (r *Relation) AddOwned(d vars.Assignment, row rel.Tuple) bool {
	if len(row) != len(r.schema) {
		panic(fmt.Sprintf("urel: tuple arity %d does not match schema %v", len(row), r.schema))
	}
	return r.addPair(utHash(d, row), d, row, false)
}

// addPair inserts under the pair's precomputed utHash. With clone set the
// pair is defensively copied (the public Add contract); operators
// inserting rows they own — or rows already owned by another relation,
// which are never mutated after insertion — pass clone=false and save two
// allocations per tuple.
func (r *Relation) addPair(h uint64, d vars.Assignment, row rel.Tuple, clone bool) bool {
	if !r.admit(h, d, row) {
		return false
	}
	if clone {
		d, row = d.Clone(), row.Clone()
	}
	r.appendUnique(d, row)
	return true
}

// admit reports whether no stored pair equals (d, row) under hash h,
// building r's index on its first use; when none does, it indexes the
// pair at the position the caller's appendUnique fills next. This is the
// hottest insert path in the engine.
func (r *Relation) admit(h uint64, d vars.Assignment, row rel.Tuple) bool {
	if !r.idx.Built() {
		r.idx = r.pairIndex()
	}
	pos, head := r.find(r.idx, h, d, row)
	if pos >= 0 {
		return false
	}
	r.idx.Append(h, head)
	return true
}

// appendUnique stores a pair the caller knows differs from every stored
// one — the output of an operator that cannot merge two pairs of a
// deduplicated input, or a pair admit let in — without probing the index.
func (r *Relation) appendUnique(d vars.Assignment, row rel.Tuple) {
	r.tuples = append(r.tuples, UTuple{D: d, Row: row})
	r.bytes += pairBytes(len(d), len(row))
}

// pairIndex indexes r's stored pairs, hashing each one.
func (r *Relation) pairIndex() rel.Index {
	ix := rel.NewIndex(len(r.tuples))
	for _, t := range r.tuples {
		h := utHash(t.D, t.Row)
		ix.Append(h, ix.First(h))
	}
	return ix
}

// probeIndex returns r's index for a read-only probe. r may be a published
// input shared with concurrent readers, so an index it lacks is built
// locally and never stored.
func (r *Relation) probeIndex() rel.Index {
	if r.idx.Built() {
		return r.idx
	}
	return r.pairIndex()
}

// reserve sizes an empty relation for n pairs. Only an operator that knows
// its output holds at most n pairs reserves: a projection that collapses
// its input must not hold a slot per input pair.
func (r *Relation) reserve(n int) {
	r.tuples = make([]UTuple, 0, n)
}

// WithColumn builds the complete relation of rows — distinct data tuples,
// as a lineage's groups are — each extended by one value of a new column
// col, the extended rows carved from one slab. Distinct rows stay
// distinct, so they are appended without a dedup index.
func WithColumn(schema rel.Schema, col string, rows []rel.Tuple, val func(i int) rel.Value) *Relation {
	out := NewRelation(rel.NewSchema(append(schema.Clone(), col)...))
	out.reserve(len(rows))
	w := len(schema) + 1
	vals := make([]rel.Value, len(rows)*w)
	for i, row := range rows {
		ext := rel.Tuple(vals[i*w : (i+1)*w : (i+1)*w])
		copy(ext, row)
		ext[len(row)] = val(i)
		out.appendUnique(nil, ext)
	}
	return out
}

// Compact returns a copy of r whose rows are carved from one exactly sized
// slab and whose conditions from another. An operator's output may share
// the slabs of the operators before it — Select, RepairKey and −c keep
// their input's rows, which pin the whole slab those were carved from — so
// a relation kept past its evaluation (the engine's memo) is compacted to
// retain what its footprint charges.
func (r *Relation) Compact() *Relation {
	r.mustResident("Compact")
	nv, nd := 0, 0
	for _, t := range r.tuples {
		nv, nd = nv+len(t.Row), nd+len(t.D)
	}
	vals, ds := make(rel.Tuple, 0, nv), make(vars.Assignment, 0, nd)
	out := &Relation{schema: r.schema, tuples: make([]UTuple, len(r.tuples)), idx: r.idx, bytes: r.bytes, dkey: r.dkey}
	for i, t := range r.tuples {
		vals, ds = append(vals, t.Row...), append(ds, t.D...)
		out.tuples[i] = UTuple{D: slices.Clip(ds[len(ds)-len(t.D):]), Row: slices.Clip(vals[len(vals)-len(t.Row):])}
	}
	return out
}

// IsComplete reports whether every tuple carries the empty assignment,
// i.e. the relation is a classical complete relation.
func (r *Relation) IsComplete() bool {
	r.mustResident("IsComplete")
	for _, t := range r.tuples {
		if len(t.D) > 0 {
			return false
		}
	}
	return true
}

// Clone returns a copy. Stored tuples are immutable once inserted, so the
// clone shares their backing arrays and only copies the relation's own
// bookkeeping (tuple list, and the dedup index if r has built one;
// otherwise the clone builds its own on its first insert). The clone is not
// D-key: it is made to take further pairs (Union), which may share a D.
func (r *Relation) Clone() *Relation {
	r.mustResident("Clone")
	return &Relation{
		schema: r.schema.Clone(),
		tuples: append([]UTuple(nil), r.tuples...),
		idx:    r.idx.Clone(),
		bytes:  r.bytes,
	}
}

// Select implements [[σ_φ R]] := σ_φ(U_R): the condition is evaluated on
// the data columns only, D is untouched.
func Select(r *Relation, pred expr.Pred) *Relation { return seqExec.Select(r, pred) }

// Project implements [[π_B̄ R]] := π_{D,B̄}(U_R), generalized to the
// paper's arithmetic/renaming targets (ρ with expressions is a special
// case of projection with targets).
func Project(r *Relation, targets []expr.Target) *Relation { return seqExec.Project(r, targets) }

// Product implements [[R × S]]: pairs of tuples with consistent D columns,
// merging the assignments. Attribute names must be disjoint; callers
// rename first otherwise.
func Product(a, b *Relation) (*Relation, error) { return seqExec.Product(a, b) }

// Join implements the natural join R ⋈ S: tuples agreeing on common
// attributes with consistent D columns. The output schema is sch(R)
// followed by the non-common attributes of S.
func Join(a, b *Relation) *Relation { return seqExec.Join(a, b) }

// Union implements [[R ∪ S]] := U_R ∪ U_S. Schemas must match.
func Union(a, b *Relation) (*Relation, error) { return seqExec.Union(a, b) }

// DiffComplete implements −c, difference applied to relations that are
// complete by c: both inputs must have empty D columns.
func DiffComplete(a, b *Relation) (*Relation, error) { return seqExec.DiffComplete(a, b) }

// Poss implements poss(R) = π_{sch(R)}(U_R): the set of tuples appearing
// in at least one world (every D has positive weight by construction).
func Poss(r *Relation) *rel.Relation { return seqExec.Poss(r) }

// TupleConf pairs a possible tuple with its clause set F = {f | ⟨f,t̄⟩ ∈
// U_R}, from which confidence is computed exactly (dnf.Confidence) or
// approximately (karpluby).
type TupleConf struct {
	Row rel.Tuple
	F   dnf.F
}

// Lineage groups the relation by data tuple and returns each possible
// tuple's clause set, in first-appearance order.
func Lineage(r *Relation) []TupleConf {
	rows, fs := seqExec.Lineage(r)
	out := make([]TupleConf, len(rows))
	for i, row := range rows {
		out[i] = TupleConf{Row: row, F: fs[i]}
	}
	return out
}

// ConfExact implements the conf operation with exact probabilities: the
// result is a complete relation with schema sch(R) ∪ {pcol}. It is the
// sequential reference the tests hold the evaluators' conf against.
func ConfExact(r *Relation, table *vars.Table, pcol string) (*rel.Relation, error) {
	if r.schema.Has(pcol) {
		return nil, fmt.Errorf("urel: conf column %q already in schema %v", pcol, r.schema)
	}
	rows, fs, _ := seqExec.lineage(r)
	out := rel.NewRelation(rel.NewSchema(append(r.schema.Clone(), pcol)...))
	for i, row := range rows {
		ext := make(rel.Tuple, len(row)+1)
		copy(ext, row)
		ext[len(row)] = rel.Float(dnf.Confidence(fs[i], table))
		out.AddOwned(ext)
	}
	return out, nil
}

// CertExact implements cert(R) = π_{sch(R)}(σ_{P=1}(conf(R))) using exact
// confidence with a small numeric tolerance.
func CertExact(r *Relation, table *vars.Table) *rel.Relation { return seqExec.CertExact(r, table) }

// RepairKey implements repair-key_Ā@B(R) by the parsimonious translation
// of Section 3: one fresh random variable per Ā-group (keyed by the key
// attribute values), one alternative per distinct residual tuple of the
// group, with probability weight/groupTotal. Fresh variables are
// registered in table with names derived from prefix. The output keeps
// the full input schema; its D column is the input D extended with the
// fresh variable binding.
//
// The weight column must hold strictly positive numbers. Two tuples of a
// group that agree on all non-key non-weight attributes but carry
// different weights are rejected: the translated W relation would contain
// two probabilities for one (Var, Dom) pair.
func RepairKey(r *Relation, key []string, weight string, table *vars.Table, prefix string) (*Relation, error) {
	return seqExec.RepairKey(r, key, weight, table, prefix)
}

// rkID is the identity of the repair-key variable registered under prefix
// for the group whose key columns hash to keyHash (rel.Tuple.HashAt, the
// typed equality the group index uses).
func rkID(prefix string, keyHash uint64) uint64 {
	return rel.HashCombine(rel.HashString(rel.HashSeed, prefix), keyHash)
}

// rkNames renders one repair-key's variables from its input: group g is
// prefix[key values] (the bare prefix when they render empty), its
// alternative a the residual values, each read off the first input tuple
// carrying it (slot[start[g]+a]). A spilled input renders prefix#g and
// the alternative's index.
func rkNames(prefix string, r *Relation, keyIdx, resIdx []int, start, slot []int32) *vars.Names {
	return &vars.Names{
		Var: func(g int) string {
			if r.spilled {
				return prefix + "#" + strconv.Itoa(g)
			}
			if d := displayKey(r.tuples[slot[start[g]]].Row, keyIdx); d != "" {
				return prefix + "[" + d + "]"
			}
			return prefix
		},
		Alt: func(g, a int) string {
			if r.spilled {
				return strconv.Itoa(a)
			}
			return displayKey(r.tuples[slot[int(start[g])+a]].Row, resIdx)
		},
	}
}

// displayKey renders the values of row at idx for a repair-key variable's
// name, prefix[displayKey], or an alternative's: comma-separated, each
// value's ',', '[', ']' and '\' escaped with a backslash. Values without
// those characters render as themselves. Names are display only: values
// of different types may render alike, identities never collide.
func displayKey(row rel.Tuple, idx []int) string {
	parts := make([]string, len(idx))
	for i, j := range idx {
		parts[i] = displayEscaper.Replace(row[j].String())
	}
	return strings.Join(parts, ",")
}

var displayEscaper = strings.NewReplacer(`\`, `\\`, `,`, `\,`, `[`, `\[`, `]`, `\]`)

// Database is a U-relational database: named U-relations over one shared
// variable table, plus the set of relations that are complete by
// definition (the function c of Section 2).
type Database struct {
	Vars     *vars.Table
	Rels     map[string]*Relation
	Complete map[string]bool
}

// NewDatabase returns an empty database with a fresh variable table.
func NewDatabase() *Database {
	return &Database{Vars: vars.NewTable(), Rels: make(map[string]*Relation), Complete: make(map[string]bool)}
}

// AddComplete registers a classical complete relation (c(R)=1).
func (db *Database) AddComplete(name string, r *rel.Relation) {
	db.Rels[name] = FromComplete(r)
	db.Complete[name] = true
}

// AddURelation registers a U-relation (c(R)=0 unless marked).
func (db *Database) AddURelation(name string, r *Relation, complete bool) {
	db.Rels[name] = r
	db.Complete[name] = complete
}

// Clone returns a copy an evaluation can rebind names in (Let) and grow the
// variable table of (repair-key) without touching db: the variable table
// and the two maps are copied, the relations — immutable once stored — are
// shared.
func (db *Database) Clone() *Database {
	return &Database{Vars: db.Vars.Clone(), Rels: maps.Clone(db.Rels), Complete: maps.Clone(db.Complete)}
}

// String renders the database: each U-relation with its D column
// formatted against the variable table, then the W table.
func (db *Database) String() string {
	names := make([]string, 0, len(db.Rels))
	for n := range db.Rels {
		names = append(names, n)
	}
	sort.Strings(names)
	out := ""
	for _, n := range names {
		r := db.Rels[n]
		out += "U_" + n + "(D; " + strings.Join(r.schema, ", ") + ")\n"
		rows := make([]string, 0, len(r.tuples))
		for _, t := range r.tuples {
			rows = append(rows, "  "+t.D.Format(db.Vars)+"  "+t.Row.String())
		}
		sort.Strings(rows)
		for _, row := range rows {
			out += row + "\n"
		}
	}
	out += "W:\n" + db.Vars.String()
	return out
}
