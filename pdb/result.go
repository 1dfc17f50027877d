package pdb

import (
	"bytes"
	"fmt"
	"iter"
	"math"
	"sort"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/rel"
	"repro/internal/urel"
)

// OpStats reports one relational operator's aggregate work across an
// evaluation: how many times it ran (Calls), how many tuples it consumed
// and produced (TuplesIn, TuplesOut), and an estimate of the bytes
// materialized for its outputs (Bytes: value and condition payloads plus
// per-tuple bookkeeping — an estimate of working-set size, not an allocator
// measurement). Declared where it is counted.
type OpStats = urel.OpStats

// Stats reports the work an evaluation did. For approximate evaluation all
// fields are populated; exact evaluation fills only Ops and the spill
// fields. The JSON names are the NDJSON trailer's (docs/API.md).
type Stats struct {
	// FinalRounds is the largest round budget l any σ̂ reached.
	FinalRounds int64 `json:"final_rounds,omitempty"`
	// Restarts is the number of root re-walks: walks of the plan again,
	// with halved shares of δ and a doubled starting l, while a result
	// bound exceeded δ — at most log₂ of the round cap.
	Restarts int `json:"restarts,omitempty"`
	// SampledTrials is the number of Karp–Luby trials actually sampled;
	// ReusedTrials counts trials resumed from estimator snapshots instead
	// — of this evaluation's earlier operators or walks, or of earlier
	// evaluations when the query is bound to an Engine cache.
	SampledTrials int64 `json:"sampled_trials"`
	ReusedTrials  int64 `json:"reused_trials"`
	// CacheHits is the number of estimation tasks that resumed from a
	// cached snapshot.
	CacheHits int64 `json:"cache_hits"`
	// Decisions is the number of σ̂ predicate decisions in each σ̂'s final
	// round.
	Decisions int `json:"decisions,omitempty"`
	// SingularDrops counts negative σ̂ decisions flagged as potential
	// ε₀-singularities (their absence is not covered by the δ guarantee).
	SingularDrops int `json:"singular_drops,omitempty"`
	// Strata is the number of sampling strata of the estimation tasks
	// (0 unless stratified estimation — WithStrata — was used).
	Strata int64 `json:"strata,omitempty"`
	// EarlyStops counts stratified estimation tasks that settled before
	// spending their full trial budget (empirical-Bernstein convergence).
	EarlyStops int64 `json:"early_stops,omitempty"`
	// ExactFactored counts independent lineage subformulas the factoring
	// pre-pass computed exactly instead of sampling.
	ExactFactored int64 `json:"exact_factored,omitempty"`
	// Ops maps operator names (join, product, select, project, union,
	// diffc, repairkey, lineage, cert, poss) to their aggregate work over
	// the evaluation's walk (conf and σ̂ record their grouping as
	// lineage). It makes operator
	// throughput — and the effect of WithWorkers on the exact-algebra
	// path — observable from the public API.
	Ops map[string]OpStats `json:"-"`
	// SpilledBytes and SpillFiles report out-of-core activity
	// (WithSpillDir): total bytes written to spill files and the number of
	// spill files created across the evaluation. Zero without spilling.
	SpilledBytes int64 `json:"spilled_bytes,omitempty"`
	SpillFiles   int   `json:"spill_files,omitempty"`
}

// Result is the outcome of one evaluation: a deterministic ordered set of
// rows with optional per-row conditions (for probabilistic results) and,
// after approximate evaluation, per-row error bounds and statistics.
type Result struct {
	cols     []string
	rows     []Row
	complete bool
	stats    Stats
}

// Row is one result row with typed column access.
type Row struct {
	res      *Result
	vals     rel.Tuple
	cond     string
	errBound float64
	singular bool
}

// approxStats is the one place the engine's record is copied into the
// facade's: the two differ in one field name (core's EstimatorTrials is the
// public SampledTrials), which the frozen benchmark/ module reads on both
// sides.
func approxStats(s core.Stats) Stats {
	return Stats{
		FinalRounds:   s.FinalRounds,
		Restarts:      s.Restarts,
		SampledTrials: s.EstimatorTrials,
		ReusedTrials:  s.ReusedTrials,
		CacheHits:     s.CacheHits,
		Decisions:     s.Decisions,
		SingularDrops: s.SingularDrops,
		Strata:        s.Strata,
		EarlyStops:    s.EarlyStops,
		ExactFactored: s.ExactFactored,
		Ops:           s.Ops,
		SpilledBytes:  s.SpilledBytes,
		SpillFiles:    s.SpillFiles,
	}
}

// newResult assembles a Result from an evaluated U-relation, its Lemma 6.4
// annotations (nil after exact evaluation: every bound is 0) and the
// evaluation's statistics.
func newResult(r *urel.Relation, complete bool, bounds *algebra.Bounds, stats Stats) *Result {
	tuples := r.Tuples()
	out := &Result{cols: append([]string(nil), r.Schema()...), complete: complete, stats: stats,
		rows: make([]Row, 0, len(tuples))}
	for _, ut := range tuples {
		mu, singular := bounds.BoundOf(ut.Row)
		out.rows = append(out.rows, Row{
			res:      out,
			vals:     ut.Row,
			cond:     ut.D.Key(),
			errBound: math.Min(1, mu),
			singular: singular,
		})
	}
	out.sortRows()
	return out
}

// sortRows fixes a deterministic, content-based row order (conditions
// first, then values) independent of evaluation order: the bytewise order
// of the rows' rel.Tuple.AppendKey keys. The keys of every column but the
// last are appended once up front into one buffer, presized from the first
// key; the last column's key only when two rows tie on the rest, at most
// once per row. A conf result's rows never tie before P, so P is never
// formatted.
func (r *Result) sortRows() {
	if len(r.rows) == 0 {
		return
	}
	last := max(len(r.rows[0].vals)-1, 0)
	// A key that outgrows the estimate moves buf; the keys cut before
	// still hold their bytes.
	buf := make([]byte, 0, len(r.rows[0].vals[:last].AppendKey(nil))*len(r.rows)*5/4)
	keys := make([][]byte, len(r.rows))
	for i, row := range r.rows {
		start := len(buf)
		buf = row.vals[:last].AppendKey(buf)
		keys[i] = buf[start:len(buf):len(buf)]
	}
	sort.Sort(&rowOrder{rows: r.rows, keys: keys, last: last})
}

// rowOrder sorts rows together with their keys before the last column and,
// from the first tie on (lastKey), their last column's keys.
type rowOrder struct {
	rows        []Row
	keys, lasts [][]byte
	last        int
	buf         []byte // holds the last column's keys
}

func (o *rowOrder) Len() int { return len(o.rows) }

// Less compares the rows' full keys, prefix '|' last: where one key before
// the last column is a proper prefix of the other, the shorter continues
// with the separator, which no other key holds at that position.
func (o *rowOrder) Less(i, j int) bool {
	if o.rows[i].cond != o.rows[j].cond {
		return o.rows[i].cond < o.rows[j].cond
	}
	a, b := o.keys[i], o.keys[j]
	n := min(len(a), len(b))
	if c := bytes.Compare(a[:n], b[:n]); c != 0 {
		return c < 0
	}
	switch {
	case len(a) < len(b):
		return '|' < b[n]
	case len(a) > len(b):
		return a[n] < '|'
	}
	return bytes.Compare(o.lastKey(i), o.lastKey(j)) < 0
}

// lastKey returns row i's last column's key, appending it to buf the first
// time.
func (o *rowOrder) lastKey(i int) []byte {
	if o.lasts == nil {
		o.lasts = make([][]byte, len(o.rows))
	}
	if o.lasts[i] == nil {
		start := len(o.buf)
		o.buf = o.rows[i].vals[o.last:].AppendKey(o.buf)
		o.lasts[i] = o.buf[start:len(o.buf):len(o.buf)]
	}
	return o.lasts[i]
}

func (o *rowOrder) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
	if o.lasts != nil {
		o.lasts[i], o.lasts[j] = o.lasts[j], o.lasts[i]
	}
}

// Columns returns the result schema in order.
func (r *Result) Columns() []string { return append([]string(nil), r.cols...) }

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.rows) }

// Complete reports whether the result is a complete (non-probabilistic)
// relation. Incomplete results carry per-row conditions (Row.Condition).
func (r *Result) Complete() bool { return r.complete }

// Stats returns evaluation statistics (zero for EvalExact results).
func (r *Result) Stats() Stats { return r.stats }

// MaxErrorBound returns the worst per-row membership-error bound over
// non-singular rows (0 for exact results).
func (r *Result) MaxErrorBound() float64 {
	worst := 0.0
	for _, row := range r.rows {
		if !row.singular && row.errBound > worst {
			worst = row.errBound
		}
	}
	return worst
}

// Rows iterates the rows in the result's deterministic order:
//
//	for row := range res.Rows() { ... }
func (r *Result) Rows() iter.Seq[Row] {
	return func(yield func(Row) bool) {
		for _, row := range r.rows {
			if !yield(row) {
				return
			}
		}
	}
}

// index returns the position of col, panicking on unknown columns (a typo
// in a column name is a programming error, not a data condition).
func (row Row) index(col string) int {
	for i, c := range row.res.cols {
		if c == col {
			return i
		}
	}
	panic(fmt.Sprintf("pdb: no column %q in result schema %v", col, row.res.cols))
}

// Value returns the column's value as a Go scalar: string, bool, int64,
// float64, or nil for NULL. It panics on unknown column names.
func (row Row) Value(col string) any { return row.At(row.index(col)) }

// At returns the value at position i of Columns as Value does. It panics
// when i is out of range.
func (row Row) At(i int) any {
	v := row.vals[i]
	switch v.Kind() {
	case rel.BoolKind:
		return v.AsBool()
	case rel.IntKind:
		return v.AsInt()
	case rel.FloatKind:
		return v.AsFloat()
	case rel.StringKind:
		return v.AsString()
	default:
		return nil
	}
}

// Float returns the column as float64 (ints convert; other kinds are 0).
func (row Row) Float(col string) float64 { return row.vals[row.index(col)].AsFloat() }

// Int returns the column as int64 (floats truncate; other kinds are 0).
func (row Row) Int(col string) int64 { return row.vals[row.index(col)].AsInt() }

// Str returns the column as a string ("" for non-strings).
func (row Row) Str(col string) string { return row.vals[row.index(col)].AsString() }

// ErrorBound returns the row's membership-error bound µ: the probability
// that the row's presence in the result is wrong is at most µ (0 for
// exact results and reliable rows).
func (row Row) ErrorBound() float64 { return row.errBound }

// Singular reports whether the row's σ̂ decisions hit the ε₀ floor: the
// predicate point may be an ε₀-singularity, and the δ guarantee does not
// cover this row.
func (row Row) Singular() bool { return row.singular }

// Condition returns the row's world condition in compact form ("" when
// the row is unconditional, i.e. present in every world the result
// describes). Conditions name the engine's internal random variables; they
// are stable identifiers for comparing rows, not user-assigned names.
func (row Row) Condition() string { return row.cond }

// String renders the row tab-separated in column order, with condition,
// error bound, and singularity markers appended when present.
func (row Row) String() string {
	parts := make([]string, 0, len(row.vals)+3)
	for _, v := range row.vals {
		parts = append(parts, v.String())
	}
	if row.cond != "" {
		parts = append(parts, "D="+row.cond)
	}
	if row.errBound > 0 {
		parts = append(parts, fmt.Sprintf("±err≤%.4g", row.errBound))
	}
	if row.singular {
		parts = append(parts, "SINGULAR")
	}
	return strings.Join(parts, "\t")
}
