package pdb

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/store"
	"repro/internal/urel"
	"repro/internal/vars"
)

// DB is a probabilistic database: named relations (complete or
// U-relational) over one shared table of independent random variables.
// A DB is immutable once built — evaluation always works on a clone — and
// safe for concurrent use by any number of prepared queries.
type DB struct {
	udb *urel.Database
}

// Open loads a database of complete relations from files, one relation per
// entry of sources (name → path). Each file's format is detected by
// content: pdbstore columnar files (see docs/STORAGE.md) load through the
// storage layer, anything else parses as CSV — the first record is the
// header, fields are typed by parsing (int, float, bool, string; empty →
// NULL). A relation loads to bit-identical content from either format of
// the same data. Probabilistic data is introduced at query time with
// repairkey, or programmatically with NewBuilder.
func Open(sources map[string]string) (*DB, error) {
	b := NewBuilder()
	// Deterministic load order so databases built from equal sources are
	// identical (variable tables grow in registration order).
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if store.Sniff(sources[name]) {
			b.Store(name, sources[name])
			continue
		}
		f, err := os.Open(sources[name])
		if err != nil {
			return nil, fmt.Errorf("pdb: opening relation %q: %w", name, err)
		}
		b.CSV(name, f)
		f.Close()
	}
	return b.Build()
}

// Builder constructs a database programmatically. Methods chain and record
// the first error; Build returns it. The zero Builder is not usable — use
// NewBuilder.
type Builder struct {
	udb *urel.Database
	err error
}

// NewBuilder returns an empty database builder.
func NewBuilder() *Builder {
	return &Builder{udb: urel.NewDatabase()}
}

// fail records the builder's first error.
func (b *Builder) fail(err error) *Builder {
	if b.err == nil {
		b.err = err
	}
	return b
}

// claim reserves a relation name, failing on duplicates (which would
// otherwise collide in the shared variable table and panic deep inside
// the representation layer).
func (b *Builder) claim(name string) bool {
	if _, dup := b.udb.Rels[name]; dup {
		b.fail(fmt.Errorf("pdb: relation %q added twice", name))
		return false
	}
	return true
}

// Table adds a complete relation with the given columns; each row's values
// must be Go scalars (string, bool, int/int64, float64, or nil for NULL)
// matching the column count.
func (b *Builder) Table(name string, columns []string, rows ...[]any) *Builder {
	if b.err != nil || !b.claim(name) {
		return b
	}
	r := rel.NewRelation(rel.NewSchema(columns...))
	for _, row := range rows {
		t, err := toTuple(name, columns, row)
		if err != nil {
			return b.fail(err)
		}
		r.Add(t)
	}
	b.udb.AddComplete(name, r)
	return b
}

// CSV adds a complete relation read from CSV data (header row first).
func (b *Builder) CSV(name string, src io.Reader) *Builder {
	if b.err != nil || !b.claim(name) {
		return b
	}
	r, err := parser.LoadCSV(src)
	if err != nil {
		return b.fail(fmt.Errorf("pdb: loading relation %q: %w", name, err))
	}
	b.udb.AddComplete(name, r)
	return b
}

// Store adds a complete relation read from a pdbstore columnar file (the
// repository's typed on-disk format — see docs/STORAGE.md; produce files
// with `pdbcli convert`). Loading the pdbstore conversion of a CSV file
// yields content bit-identical to loading the CSV itself.
func (b *Builder) Store(name, path string) *Builder {
	if b.err != nil || !b.claim(name) {
		return b
	}
	r, err := store.ReadRelation(path, rel.NewInterner())
	if err != nil {
		return b.fail(fmt.Errorf("pdb: loading relation %q: %w", name, err))
	}
	b.udb.AddComplete(name, r)
	return b
}

// Independent adds a tuple-independent probabilistic relation: row i is
// present with probability probs[i], independently of every other row.
// Probabilities must lie in (0, 1]; a probability of exactly 1 makes the
// row certain.
func (b *Builder) Independent(name string, columns []string, rows [][]any, probs []float64) *Builder {
	if b.err != nil || !b.claim(name) {
		return b
	}
	if len(rows) != len(probs) {
		return b.fail(fmt.Errorf("pdb: relation %q has %d rows but %d probabilities", name, len(rows), len(probs)))
	}
	r := urel.NewRelation(rel.NewSchema(columns...))
	// One registration: uncertain row i gets identity RowID(name, i), and
	// renders as name_t<i> with alternatives in and out.
	var (
		ids   []uint64
		ps    []float64
		start = []int32{0}
		at    []int
	)
	first := vars.Var(b.udb.Vars.Len())
	for i, row := range rows {
		t, err := toTuple(name, columns, row)
		if err != nil {
			return b.fail(err)
		}
		p := probs[i]
		if p <= 0 || p > 1 {
			return b.fail(fmt.Errorf("pdb: relation %q row %d: probability %v outside (0,1]", name, i, p))
		}
		if p == 1 {
			r.Add(nil, t)
			continue
		}
		r.Add(vars.MustAssignment(vars.Binding{Var: first + vars.Var(len(ids)), Alt: 0}), t)
		ids = append(ids, vars.RowID(name, i))
		ps = append(ps, p, 1-p)
		start = append(start, int32(len(ps)))
		at = append(at, i)
	}
	b.udb.Vars.Register(ids, ps, start, &vars.Names{
		Var: func(k int) string { return name + "_t" + strconv.Itoa(at[k]) },
		Alt: func(_, alt int) string { return [...]string{"in", "out"}[alt] },
	})
	b.udb.AddURelation(name, r, false)
	return b
}

// Alt is the set of alternatives of one uncertain attribute of one row:
// values with probabilities summing to 1. Use Certain for attributes
// without uncertainty.
type Alt struct {
	Values []any
	Probs  []float64

	// invalid carries a construction error from Choice, reported when the
	// Alt is used in a builder call.
	invalid error
}

// Certain wraps a single certain attribute value.
func Certain(v any) Alt { return Alt{Values: []any{v}, Probs: []float64{1}} }

// Choice builds an Alt from alternating value, probability pairs:
// Choice("NYC", 0.8, "Newark", 0.2). Probabilities must be float64 and
// the pair list must be even; malformed calls are reported as an error by
// the Build that consumes the Alt.
func Choice(pairs ...any) Alt {
	a := Alt{}
	if len(pairs)%2 != 0 {
		a.invalid = fmt.Errorf("Choice needs value, probability pairs; got %d arguments", len(pairs))
		return a
	}
	for i := 0; i < len(pairs); i += 2 {
		p, ok := pairs[i+1].(float64)
		if !ok {
			a.invalid = fmt.Errorf("Choice probability for value %v is %T, want float64", pairs[i], pairs[i+1])
			return a
		}
		a.Values = append(a.Values, pairs[i])
		a.Probs = append(a.Probs, p)
	}
	return a
}

// AttributeUncertain adds a relation with attribute-level uncertainty via
// the paper's vertical decomposition (Section 3): each row gives one Alt
// per column, attributes vary independently, and the stored size is linear
// in the number of alternatives while the represented relation is their
// cartesian product.
func (b *Builder) AttributeUncertain(name string, columns []string, rows ...[]Alt) *Builder {
	if b.err != nil || !b.claim(name) {
		return b
	}
	schema := rel.NewSchema(columns...)
	conv := make([][]urel.AttrAlternatives, len(rows))
	for i, row := range rows {
		if len(row) != len(columns) {
			return b.fail(fmt.Errorf("pdb: relation %q row %d has %d attributes, want %d", name, i, len(row), len(columns)))
		}
		conv[i] = make([]urel.AttrAlternatives, len(row))
		for j, alt := range row {
			where := fmt.Sprintf("pdb: relation %q row %d column %q", name, i, columns[j])
			if alt.invalid != nil {
				return b.fail(fmt.Errorf("%s: %w", where, alt.invalid))
			}
			if len(alt.Values) == 0 || len(alt.Values) != len(alt.Probs) {
				return b.fail(fmt.Errorf("%s: %d values with %d probabilities", where, len(alt.Values), len(alt.Probs)))
			}
			aa := urel.AttrAlternatives{Probs: alt.Probs}
			for _, v := range alt.Values {
				rv, err := toValue(v)
				if err != nil {
					return b.fail(fmt.Errorf("%s: %w", where, err))
				}
				aa.Values = append(aa.Values, rv)
			}
			sum := 0.0
			for _, p := range alt.Probs {
				if p <= 0 || p > 1 {
					return b.fail(fmt.Errorf("%s: probability %v outside (0,1]", where, p))
				}
				sum += p
			}
			// The variable table renormalizes within ±1e-9 and panics
			// beyond; reject anything off 1 here with a caller-level error.
			if sum < 1-1e-9 || sum > 1+1e-9 {
				return b.fail(fmt.Errorf("%s: probabilities sum to %v, want 1", where, sum))
			}
			conv[i][j] = aa
		}
	}
	vd, err := urel.BuildAttributeUncertainty(b.udb.Vars, schema, conv, "TID_"+name, name)
	if err != nil {
		return b.fail(fmt.Errorf("pdb: relation %q: %w", name, err))
	}
	b.udb.AddURelation(name, vd.Joined(), false)
	return b
}

// Build finalizes the database, returning the first error any builder call
// recorded.
func (b *Builder) Build() (*DB, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &DB{udb: b.udb}, nil
}

// Relations returns the database's relation names, sorted.
func (db *DB) Relations() []string {
	names := make([]string, 0, len(db.udb.Rels))
	for n := range db.udb.Rels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// NumTuples returns the number of stored (condition, tuple) pairs of the
// named relation, or 0 if it does not exist. For probabilistic relations
// this is the size of the succinct U-relational representation, not the
// number of possible worlds.
func (db *DB) NumTuples(name string) int {
	if r, ok := db.udb.Rels[name]; ok {
		return r.Len()
	}
	return 0
}

// toTuple converts one row of Go scalars.
func toTuple(name string, columns []string, row []any) (rel.Tuple, error) {
	if len(row) != len(columns) {
		return nil, fmt.Errorf("pdb: relation %q row %v has %d values, want %d", name, row, len(row), len(columns))
	}
	t := make(rel.Tuple, len(row))
	for i, v := range row {
		rv, err := toValue(v)
		if err != nil {
			return nil, fmt.Errorf("pdb: relation %q column %q: %w", name, columns[i], err)
		}
		t[i] = rv
	}
	return t, nil
}

// toValue converts a Go scalar to an engine value.
func toValue(v any) (rel.Value, error) {
	switch x := v.(type) {
	case nil:
		return rel.Null(), nil
	case bool:
		return rel.Bool(x), nil
	case int:
		return rel.Int(int64(x)), nil
	case int64:
		return rel.Int(x), nil
	case float64:
		return rel.Float(x), nil
	case string:
		return rel.String(x), nil
	default:
		return rel.Value{}, fmt.Errorf("unsupported value %v of type %T (want string, bool, int, int64, float64, or nil)", v, v)
	}
}
