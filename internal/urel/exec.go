package urel

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/vars"
)

// Exec evaluates the U-relational operators with optional per-operator
// statistics, a memory budget and spilling. The package-level operator
// functions delegate to a one-worker Exec; evaluators build one Exec per
// evaluation and route every operator through it.
//
// Every operator is one sequential pass over its inputs. The pool serves
// the one step whose cost justifies a fan-out: CertExact's per-group exact
// confidences, each written to its group's own slot, so the output is the
// same for any worker count.
type Exec struct {
	pool *sched.Pool
	ctrs *Counters
	mem  *MemBudget
	// spill, when set together with mem, switches the budget from a hard
	// abort to out-of-core execution: see WithSpill.
	spill *Spill
	// reg tracks this evaluation's spill-eligible intermediates (every
	// operator output produced under spill mode) in production order — the
	// order manage sheds them in when the budget is over its limit.
	reg []*Relation
}

// NewExec returns an Exec over the pool (nil selects a one-worker pool)
// recording operator statistics into ctrs (nil disables recording).
func NewExec(pool *sched.Pool, ctrs *Counters) *Exec {
	if pool == nil {
		pool = sched.New(1)
	}
	return &Exec{pool: pool, ctrs: ctrs}
}

// WithBudget attaches a memory budget: every operator charges its output's
// estimated footprint against it, and the blow-up operators (join,
// product) stop producing mid-operator once it trips. Returns x for
// chaining; a nil budget disables the checks.
func (x *Exec) WithBudget(b *MemBudget) *Exec {
	x.mem = b
	return x
}

// WithSpill attaches a spill manager, turning the memory budget into
// out-of-core execution instead of a hard limit: operators always produce
// their complete output (the mid-operator early stops are disabled — a
// truncated output that later continued would be silently wrong), and
// after each operator the Exec sheds intermediate relations to spill
// files, oldest first, until the live charged set is back under the
// budget. Spilled inputs rehydrate transparently when a later operator
// needs them, and a rehydrated relation is bit-identical to one that
// never spilled, so results match the in-memory evaluation exactly.
//
// The budget is then a high-water mark, not a bound: the working set of
// any single operator (its inputs plus its output) stays resident
// regardless of the limit. Spill I/O failures are sticky on the manager;
// evaluators check Err at each operator boundary and abort, so a failed
// spill never yields partial results. The shed registry is not
// synchronized: one goroutine drives an Exec.
func (x *Exec) WithSpill(s *Spill) *Exec {
	x.spill = s
	return x
}

// Err reports the evaluation's first spill I/O failure (nil without a
// spill manager or before any failure). Evaluators check it at operator
// boundaries, next to the memory budget.
func (x *Exec) Err() error {
	if x.spill == nil {
		return nil
	}
	return x.spill.Err()
}

// outOfCore reports whether spill-backed execution is active (it needs
// both the shed target — a budget — and somewhere to shed to).
func (x *Exec) outOfCore() bool { return x.spill != nil && x.mem != nil }

// probeStop is the operators' mid-operator budget probe: under out-of-core
// execution it never stops production (outputs must be complete — the
// budget overshoot is resolved by shedding afterwards), otherwise it is
// MemBudget.Probe.
func (x *Exec) probeStop(inflight int64) bool {
	if x.outOfCore() {
		return false
	}
	return x.mem.Probe(inflight)
}

// Ensure rehydrates any spilled inputs before an operator — or an
// evaluation driver reading a final result — touches their tuples,
// re-charging their footprint against the budget. Hydration failures are
// sticky on the spill manager (the operator then sees an empty input; the
// evaluator aborts on Err before the bogus result is used).
func (x *Exec) Ensure(rs ...*Relation) {
	for _, r := range rs {
		if r == nil || !r.spilled {
			continue
		}
		if err := r.hydrate(); err != nil {
			x.spill.fail(err)
			continue
		}
		x.mem.Add(r.bytes)
	}
}

// produced registers out as spill-eligible and sheds intermediates while
// the budget is over its limit, keeping the current operator's relations
// (its output and inputs — the caller reads them right after) resident.
// No-op outside out-of-core mode.
func (x *Exec) produced(out *Relation, ins ...*Relation) {
	if !x.outOfCore() {
		return
	}
	if out != nil {
		x.reg = append(x.reg, out)
	}
	x.manage(out, ins)
}

// manage sheds registered intermediates, oldest first, until the charged
// live set is back under the budget, then clears the tripped flag: under
// out-of-core execution the budget never aborts the evaluation, it only
// decides what lives in memory.
func (x *Exec) manage(out *Relation, ins []*Relation) {
	for _, r := range x.reg {
		if x.mem.Used() <= x.mem.Limit() {
			break
		}
		if r.spilled || r == out || slices.Contains(ins, r) {
			continue
		}
		x.spill.spillOut(r)
		if !r.spilled {
			break // write failed (sticky on the manager); stop shedding
		}
		x.mem.Release(r.bytes)
	}
	x.mem.untrip()
}

// seqExec backs the package-level operator functions: one worker, no
// statistics.
var seqExec = &Exec{pool: sched.New(1)}

// Estimated per-tuple memory footprint, used for the Bytes counters.
const (
	// A row's value is its size in the slab: 32 bytes (a string header,
	// one payload word, the kind), so operator Bytes track the layout.
	valueBytes   = int64(unsafe.Sizeof(rel.Value{}))
	bindingBytes = int64(unsafe.Sizeof(vars.Binding{}))
	// Two slice headers (row, D) plus the hash/index bookkeeping.
	pairOverheadBytes = 2*24 + 12
	// One clause of a lineage group: an Assignment slice header (the
	// bindings themselves are shared with the relation).
	clauseHeaderBytes = 24
)

func pairBytes(bindings, arity int) int64 {
	return int64(arity)*valueBytes + int64(bindings)*bindingBytes + pairOverheadBytes
}

// record adds one operator application to the statistics (no-op without a
// collector) and charges its output footprint against the memory budget.
func (x *Exec) record(op string, tuplesIn, tuplesOut, bytes int64) {
	x.mem.Add(bytes)
	if x.ctrs == nil {
		return
	}
	c := x.ctrs.cell(op)
	c.calls.Add(1)
	c.in.Add(tuplesIn)
	c.out.Add(tuplesOut)
	c.bytes.Add(bytes)
}

// Select implements σ_φ in a single pass, the predicate bound to the input
// schema once. A subset of a set holds no duplicates, so surviving pairs
// are appended without hashing, cloning or an index; a subset of a D-key
// relation is D-key. Its pairs are its input's: it allocates no row.
func (x *Exec) Select(r *Relation, pred expr.Pred) *Relation {
	x.Ensure(r)
	out := NewRelation(r.schema)
	out.dkey = r.dkey
	pred = expr.BindPred(pred, r.schema)
	for _, t := range r.tuples {
		if pred.Holds(expr.Env{Schema: r.schema, Tuple: t.Row}) {
			out.appendUnique(t.D, t.Row)
		}
	}
	x.record("select", int64(len(r.tuples)), int64(out.Len()), out.Bytes())
	x.produced(out, r)
	return out
}

// Project implements π with expression targets bound once to the input
// schema. Each row is built in a scratch tuple and copied out only when it
// is a new pair, into chunks as large as the output so far but no larger
// than the input left. Over a D-key input no two output pairs can merge —
// their D's differ — so the output takes one row per input pair, all from
// one slab, unhashed and without an index, and is D-key itself.
func (x *Exec) Project(r *Relation, targets []expr.Target) *Relation {
	x.Ensure(r)
	out := NewRelation(targetSchema(targets))
	proj := expr.BindTargets(targets, r.schema)
	n, w := len(r.tuples), len(targets)
	if out.dkey = r.dkey; out.dkey {
		out.reserve(n)
	}
	scratch, free := make(rel.Tuple, w), []rel.Value(nil)
	for i, t := range r.tuples {
		proj.Fill(scratch, t.Row)
		if !r.dkey && !out.admit(utHash(t.D, scratch), t.D, scratch) {
			continue
		}
		if len(free) < w {
			c := n - i
			if !r.dkey {
				c = min(c, max(out.Len(), 16))
			}
			free = make([]rel.Value, w*c)
		}
		row := rel.Tuple(free[:w:w])
		free = free[w:]
		copy(row, scratch)
		out.appendUnique(t.D, row)
	}
	x.record("project", int64(n), int64(out.Len()), out.Bytes())
	x.produced(out, r)
	return out
}

// targetSchema is the output schema of a projection on targets.
func targetSchema(targets []expr.Target) rel.Schema {
	schema := make(rel.Schema, len(targets))
	for i, tg := range targets {
		schema[i] = tg.As
	}
	return rel.NewSchema(schema...)
}

// Product implements [[R × S]]: the natural join of inputs with no
// common attribute, whose every pair of tuples matches.
func (x *Exec) Product(a, b *Relation) (*Relation, error) {
	for _, attr := range b.schema {
		if a.schema.Has(attr) {
			return nil, fmt.Errorf("urel: product schemas share attribute %q; rename first", attr)
		}
	}
	return x.join("product", a, b, nil, false), nil
}

// Join implements the natural join R ⋈ S as a hash join: the build side's
// join-column hashes are indexed in insertion order (rel.BuildIndex); the
// probe side is scanned once, listing its matches, which are then built
// into slabs sized exactly. Bucket candidates filtered by the 64-bit
// join-key hash are confirmed by value equality on the join columns; of
// equal output pairs the first is kept.
func (x *Exec) Join(a, b *Relation) *Relation {
	return x.join("join", a, b, nil, false)
}

// ProjectJoin is π_targets(R ⋈ S) in one operator: each joined row lives in
// a scratch tuple, is projected and never stored. The output is
// Project's over Join's, pair for pair. It records a join cell of the
// emitted pairs and their footprint, then a project cell: the cells Join
// then Project record whenever no two joined pairs merge, as when one
// input's D's are all empty (two joined pairs with one row then differ in
// D). An empty target list projects onto no columns.
//
// When the targets read only R's columns and S is complete, it runs as a
// semijoin: every match of an R pair projects to that pair's D and the
// targets over its row, so only the matched R pairs are listed, once each.
// Over a D-key R their D's differ: the output is D-key, with no dedup.
func (x *Exec) ProjectJoin(a, b *Relation, targets []expr.Target) *Relation {
	return x.join("join", a, b, targets, true)
}

// join is Join, Product and ProjectJoin, recorded as op; project says
// whether targets apply.
func (x *Exec) join(op string, a, b *Relation, targets []expr.Target, project bool) *Relation {
	x.Ensure(a, b)
	common := a.schema.Common(b.schema)
	var bExtra []string
	var bExtraIdx []int
	for j, attr := range b.schema {
		if !a.schema.Has(attr) {
			bExtra, bExtraIdx = append(bExtra, attr), append(bExtraIdx, j)
		}
	}
	joined := rel.NewSchema(append(a.schema.Clone(), bExtra...)...)
	schema := joined
	if project {
		schema = targetSchema(targets)
	}
	aIdx, bIdx := make([]int, len(common)), make([]int, len(common))
	for i, c := range common {
		aIdx[i], bIdx[i] = a.schema.Index(c), b.schema.Index(c)
	}

	semi := project && b.IsComplete()
	for _, tg := range targets {
		for _, attr := range tg.Expr.Attrs(nil) {
			semi = semi && a.schema.Has(attr)
		}
	}

	// Build phase: index S's join-column hashes so a chain visits S in
	// insertion order.
	bh := make([]uint64, len(b.tuples))
	for i, t := range b.tuples {
		bh[i] = t.Row.HashAt(bIdx)
	}
	build := rel.BuildIndex(bh)

	// First pass, over R: the output pairs — each one's R tuple in is and,
	// unless a semijoin builds it from that alone, its S tuple in js — the
	// bindings of the conditions they merge (nds; a condition met with an
	// empty one is shared), and the joined pairs emitted and their
	// footprint.
	is := make([]int32, 0, len(a.tuples)) // one match per R tuple, to start with
	var js []int32
	if !semi {
		js = make([]int32, 0, len(a.tuples))
	}
	var nds int
	var emitted, footprint int64
	// Cooperative memory limit: probed once per probe tuple AND every 1024
	// emitted pairs (one probe tuple's fan-out is unbounded). Once the
	// budget trips, stop; the evaluation aborts between operators,
	// discarding the output.
	for i := 0; i < len(a.tuples) && !x.probeStop(footprint); i++ {
		ta := a.tuples[i]
		for j := build.First(ta.Row.HashAt(aIdx)); j >= 0; j = build.Next(j) {
			tb := b.tuples[j]
			if !ta.Row.EqualAt(aIdx, tb.Row, bIdx) {
				continue
			}
			nd, ok := ta.D.UnionLen(tb.D)
			if !ok {
				continue
			}
			if !semi {
				is, js = append(is, int32(i)), append(js, j)
				if len(ta.D) > 0 && len(tb.D) > 0 {
					nds += nd
				}
			} else if k := len(is); k == 0 || is[k-1] != int32(i) {
				is = append(is, int32(i))
			}
			emitted++
			footprint += pairBytes(nd, len(joined))
			if emitted&0x3ff == 0 && x.probeStop(footprint) {
				break
			}
		}
	}

	// Second pass: the pairs built into slabs sized exactly and, unless
	// the output is D-key, deduplicated as they come.
	w, la := len(schema), len(a.schema)
	proj := expr.BindTargets(targets, joined)
	vals, free := make([]rel.Value, len(is)*w), make(vars.Assignment, nds)
	dkey := semi && a.dkey
	out := &Relation{schema: schema, tuples: make([]UTuple, 0, len(is)), dkey: dkey}
	if !dkey {
		out.idx = rel.NewIndex(len(is))
	}
	wide := make(rel.Tuple, len(joined))
	for p, i := range is {
		ta := a.tuples[i]
		d, in := ta.D, ta.Row
		if !semi {
			tb := b.tuples[js[p]]
			if len(ta.D) == 0 {
				d = tb.D
			} else if len(tb.D) > 0 {
				d, _ = ta.D.AppendUnion(free[:0], tb.D)
				d, free = d[:len(d):len(d)], free[len(d):]
			}
			copy(wide, ta.Row)
			for c, jj := range bExtraIdx {
				wide[la+c] = tb.Row[jj]
			}
			in = wide
		}
		row := rel.Tuple(vals[p*w : (p+1)*w : (p+1)*w])
		if project {
			proj.Fill(row, in)
		} else {
			copy(row, in)
		}
		if dkey || out.admit(utHash(d, row), d, row) {
			out.appendUnique(d, row)
		}
	}
	if out.Len() < len(is) { // retain the kept pairs only, not the slabs
		out = out.Compact()
	}

	in := int64(len(a.tuples) + len(b.tuples))
	if !project {
		x.record(op, in, int64(out.Len()), out.Bytes())
	} else {
		x.record(op, in, emitted, footprint)
		// A join that trips the budget ends the evaluation before its
		// projection would run; out-of-core execution never ends on it.
		if x.outOfCore() || !x.mem.Exceeded() {
			x.record("project", emitted, int64(out.Len()), out.Bytes())
		}
	}
	x.produced(out, a, b)
	return out
}

// Union implements [[R ∪ S]]: a's pairs, then b's probed into them.
func (x *Exec) Union(a, b *Relation) (*Relation, error) {
	if !a.schema.Equal(b.schema) {
		return nil, fmt.Errorf("urel: union schema mismatch %v vs %v", a.schema, b.schema)
	}
	x.Ensure(a, b)
	out := a.Clone()
	for _, t := range b.tuples {
		out.addPair(utHash(t.D, t.Row), t.D, t.Row, false)
	}
	x.record("union", int64(len(a.tuples)+len(b.tuples)), int64(out.Len()), out.Bytes())
	x.produced(out, a, b)
	return out, nil
}

// DiffComplete implements −c over complete relations: each of a's pairs is
// probed into b's index. The output is a subset of a, so it is appended
// without an index.
func (x *Exec) DiffComplete(a, b *Relation) (*Relation, error) {
	x.Ensure(a, b)
	if !a.IsComplete() || !b.IsComplete() {
		return nil, fmt.Errorf("urel: -c requires complete relations")
	}
	if !a.schema.Equal(b.schema) {
		return nil, fmt.Errorf("urel: difference schema mismatch %v vs %v", a.schema, b.schema)
	}
	out := NewRelation(a.schema)
	bix := b.probeIndex()
	for _, t := range a.tuples {
		if pos, _ := b.find(bix, utHash(t.D, t.Row), t.D, t.Row); pos < 0 {
			out.appendUnique(nil, t.Row)
		}
	}
	x.record("diffc", int64(len(a.tuples)+len(b.tuples)), int64(out.Len()), out.Bytes())
	x.produced(out, a, b)
	return out, nil
}

// Poss implements poss(R): row-level dedup through the hashed index, with
// output rows shared with the (immutable) input.
func (x *Exec) Poss(r *Relation) *rel.Relation {
	x.Ensure(r)
	out := rel.NewRelation(r.schema)
	for _, t := range r.tuples {
		out.AddOwned(t.Row)
	}
	x.record("poss", int64(len(r.tuples)), int64(out.Len()), int64(out.Len())*pairOverheadBytes)
	x.produced(nil, r)
	return out
}

// lineageGrouper groups rows through a rel.Index over their hashes, in
// first-appearance order, each group with its clause count.
type lineageGrouper struct {
	idx   rel.Index
	rows  []rel.Tuple
	sizes []int32
}

// at returns the id of row's group under hash h — creating it, in
// first-appearance order, when absent — and counts one more clause in it.
func (g *lineageGrouper) at(h uint64, row rel.Tuple) int32 {
	head := g.idx.First(h)
	for p := head; p >= 0; p = g.idx.Next(p) {
		if g.rows[p].Equal(row) {
			g.sizes[p]++
			return p
		}
	}
	g.idx.Append(h, head)
	g.rows = append(g.rows, row)
	g.sizes = append(g.sizes, 1)
	return int32(len(g.rows) - 1)
}

// lineage is the grouping core of Lineage, ConfExact and CertExact: group
// ids first, in one pass, then one clause array carved per group and
// filled in input order. Groups are in first-appearance order and clauses
// in input order; every output slice is sized exactly; rows and clauses
// are the input's own.
func (x *Exec) lineage(r *Relation) (rows []rel.Tuple, fs []dnf.F, bytes int64) {
	x.Ensure(r)
	n := len(r.tuples)
	if n == 0 {
		return nil, nil, 0
	}
	ids := make([]int32, n)
	g := &lineageGrouper{idx: rel.NewIndex(n)}
	for i, t := range r.tuples {
		ids[i] = g.at(t.Row.Hash(), t.Row)
	}
	rows = make([]rel.Tuple, len(g.rows))
	copy(rows, g.rows)
	all, off := make([]vars.Assignment, n), 0
	fs = make([]dnf.F, len(g.sizes))
	for i, size := range g.sizes {
		fs[i] = all[off : off : off+int(size)]
		off += int(size)
	}
	for i, t := range r.tuples {
		fs[ids[i]] = append(fs[ids[i]], t.D)
	}
	return rows, fs, int64(len(rows))*pairOverheadBytes + int64(n)*clauseHeaderBytes
}

// Lineage groups the relation by data tuple and returns each possible
// tuple — in first-appearance order — beside its clause set.
func (x *Exec) Lineage(r *Relation) ([]rel.Tuple, []dnf.F) {
	rows, fs, bytes := x.lineage(r)
	x.record("lineage", int64(len(r.tuples)), int64(len(rows)), bytes)
	x.produced(nil, r)
	return rows, fs
}

// CertExact implements cert(R) via exact confidences, fanned out over the
// pool one task per group.
func (x *Exec) CertExact(r *Relation, table *vars.Table) *rel.Relation {
	rows, fs, _ := x.lineage(r)
	keep := make([]bool, len(fs))
	_ = x.pool.ForEach(len(fs), func(i int) error {
		keep[i] = dnf.Confidence(fs[i], table) >= 1-1e-12
		return nil
	})
	out := rel.NewRelation(r.schema)
	for i, row := range rows {
		if keep[i] {
			out.AddOwned(row)
		}
	}
	x.record("cert", int64(len(r.tuples)), int64(out.Len()), int64(out.Len())*pairOverheadBytes)
	x.produced(nil, r)
	return out
}

// witnessIndex identifies the tuples of one input by a subset of their
// columns: each distinct sub-tuple is represented by the first input tuple
// carrying it, its equality witness.
type witnessIndex struct {
	idx   rel.Index
	first []int32 // position -> input tuple that introduced it
}

func newWitnessIndex(n int) witnessIndex {
	return witnessIndex{idx: rel.NewIndex(n), first: make([]int32, 0, n)}
}

// locate returns the witness agreeing with row on cols under hash h (or
// -1), and the chain head for add.
func (w *witnessIndex) locate(h uint64, tuples []UTuple, row rel.Tuple, cols []int) (first, head int32) {
	head = w.idx.First(h)
	for p := head; p >= 0; p = w.idx.Next(p) {
		if row.EqualAt(cols, tuples[w.first[p]].Row, cols) {
			return w.first[p], head
		}
	}
	return -1, head
}

// add makes input tuple i the witness of its sub-tuple, absent so far.
func (w *witnessIndex) add(h uint64, head int32, i int) {
	w.idx.Append(h, head)
	w.first = append(w.first, int32(i))
}

// RepairKey implements repair-key (see the package-level wrapper for the
// full contract). Groups and alternatives are found through witnessIndex
// tables over the key and the non-weight columns, into flat per-tuple
// arrays; one Register call then adds every group's variable, its
// probabilities carved from one slice. A variable's identity mixes the
// prefix with its key columns' typed hash (rkID); names are rendered only
// on demand (rkNames), from the input's tuples.
func (x *Exec) RepairKey(r *Relation, key []string, weight string, table *vars.Table, prefix string) (*Relation, error) {
	x.Ensure(r)
	keyIdx := make([]int, len(key))
	for i, a := range key {
		j := r.schema.Index(a)
		if j < 0 {
			return nil, fmt.Errorf("urel: repair-key attribute %q not in schema %v", a, r.schema)
		}
		keyIdx[i] = j
	}
	wIdx := r.schema.Index(weight)
	if wIdx < 0 {
		return nil, fmt.Errorf("urel: repair-key weight %q not in schema %v", weight, r.schema)
	}
	// Residual attributes: (sch(R) − Ā) − B, the Dom of the fresh variable.
	var resIdx []int
	for j := range r.schema {
		if j != wIdx && !slices.Contains(keyIdx, j) {
			resIdx = append(resIdx, j)
		}
	}

	// A group is identified by the key columns, an alternative by every
	// column but the weight: its group's key plus the residual. Input tuple
	// i belongs to group tupleGroup[i], as its alternative tupleAlt[i];
	// size[g] counts group g's alternatives.
	n := len(r.tuples)
	groups, alts := newWitnessIndex(n), newWitnessIndex(n)
	altIdx := append(append([]int(nil), keyIdx...), resIdx...)
	buf := make([]int32, 3*n)
	tupleGroup, tupleAlt, size := buf[:n], buf[n:2*n], buf[2*n:2*n]
	total := n // Σ(|D|+1): the output's condition bindings
	for i, t := range r.tuples {
		total += len(t.D)
		w := t.Row[wIdx]
		if !w.IsNumeric() || !(w.AsFloat() > 0) || math.IsInf(w.AsFloat(), 1) {
			return nil, fmt.Errorf("urel: repair-key weight %v is not a positive number", w)
		}
		gh := t.Row.HashAt(keyIdx)
		first, head := groups.locate(gh, r.tuples, t.Row, keyIdx)
		g := int32(len(size))
		if first < 0 {
			groups.add(gh, head, i)
			size = append(size, 0)
		} else {
			g = tupleGroup[first]
		}
		tupleGroup[i] = g
		ah := rel.HashCombine(gh, t.Row.HashAt(resIdx))
		first, head = alts.locate(ah, r.tuples, t.Row, altIdx)
		if first < 0 {
			alts.add(ah, head, i)
			tupleAlt[i] = size[g]
			size[g]++
		} else if tupleAlt[i] = tupleAlt[first]; r.tuples[first].Row[wIdx].AsFloat() != w.AsFloat() {
			return nil, fmt.Errorf("urel: repair-key group %s has conflicting weights for one alternative", displayKey(t.Row, keyIdx))
		}
	}

	// Group g's alternatives take slots start[g]..start[g+1]-1 of probs,
	// in first-appearance order; slot[k] is the first input tuple of slot
	// k's alternative. Each weight is divided by its group's total, summed
	// in slot order.
	nG, nA := len(size), len(alts.first)
	idx := make([]int32, nG+1+nA)
	start, slot := idx[:nG+1], idx[nG+1:]
	for g, k := range size {
		start[g+1] = start[g] + k
	}
	probs := make([]float64, nA)
	for _, i := range alts.first {
		k := start[tupleGroup[i]] + tupleAlt[i]
		slot[k], probs[k] = i, r.tuples[i].Row[wIdx].AsFloat()
	}
	ids := make([]uint64, nG)
	for g := range ids {
		p := probs[start[g]:start[g+1]]
		total := 0.0
		for _, w := range p {
			total += w
		}
		if math.IsInf(total, 1) {
			return nil, fmt.Errorf("urel: repair-key group %s has weights summing past the float range", displayKey(r.tuples[groups.first[g]].Row, keyIdx))
		}
		for k := range p {
			p[k] /= total
		}
		ids[g] = rkID(prefix, r.tuples[groups.first[g]].Row.HashAt(keyIdx))
	}
	v0 := table.Register(ids, probs, start, rkNames(prefix, r, keyIdx, resIdx, start, slot))

	// Each input pair gains a binding of its group's fresh variable, so
	// distinct input pairs stay distinct: one output pair per input pair.
	// The output is D-key: the binding v = alt fixes the group (v is one
	// group's fresh variable) and the alternative (alt), hence the key and
	// residual columns, and the alternative's one weight (conflicting
	// weights were rejected above) — so D determines the row, and two
	// pairs with one D would be one pair.
	// Every output D is carved from one slab.
	out := NewRelation(r.schema)
	out.reserve(n)
	out.dkey = true
	ds := make(vars.Assignment, total)
	for i, t := range r.tuples {
		d := t.D.AppendWith(ds[:0], v0+vars.Var(tupleGroup[i]), tupleAlt[i])
		d, ds = d[:len(d):len(d)], ds[len(d):]
		out.appendUnique(d, t.Row)
	}
	x.record("repairkey", int64(n), int64(out.Len()), out.Bytes())
	x.produced(out, r)
	return out, nil
}

// OpStats aggregates one operator's work across an evaluation: number of
// applications, input and output tuple counts, and an estimate of the
// bytes materialized for output tuples (value/assignment payloads plus
// per-pair bookkeeping; an estimate, not an allocator measurement).
type OpStats struct {
	Calls     int64
	TuplesIn  int64
	TuplesOut int64
	Bytes     int64
}

// StatsMap maps operator names (join, product, select, project, union,
// diffc, repairkey, lineage, cert, poss) to their aggregated stats.
type StatsMap map[string]OpStats

// Counters is a concurrency-safe operator-statistics collector shared by
// all Execs of one evaluation.
type Counters struct {
	mu sync.Mutex
	m  map[string]*opCell
}

type opCell struct {
	calls, in, out, bytes atomic.Int64
}

// NewCounters returns an empty collector.
func NewCounters() *Counters { return &Counters{m: make(map[string]*opCell)} }

func (c *Counters) cell(op string) *opCell {
	c.mu.Lock()
	cell, ok := c.m[op]
	if !ok {
		cell = &opCell{}
		c.m[op] = cell
	}
	c.mu.Unlock()
	return cell
}

// Add replays statistics another collector recorded (a Snapshot) as if
// their operators had run again.
func (c *Counters) Add(m StatsMap) {
	for op, s := range m {
		cell := c.cell(op)
		cell.calls.Add(s.Calls)
		cell.in.Add(s.TuplesIn)
		cell.out.Add(s.TuplesOut)
		cell.bytes.Add(s.Bytes)
	}
}

// Snapshot returns the current aggregated statistics.
func (c *Counters) Snapshot() StatsMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(StatsMap, len(c.m))
	for op, cell := range c.m {
		out[op] = OpStats{
			Calls:     cell.calls.Load(),
			TuplesIn:  cell.in.Load(),
			TuplesOut: cell.out.Load(),
			Bytes:     cell.bytes.Load(),
		}
	}
	return out
}
