package urel

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/vars"
)

// relFingerprint renders a relation's exact content AND insertion order —
// the bit-identity contract is that an Exec's output equals the
// package-level output tuple for tuple, not just as a set.
func relFingerprint(r *Relation) string {
	var b strings.Builder
	for _, t := range r.Tuples() {
		b.WriteString(t.D.Key())
		b.WriteString("||")
		b.WriteString(t.Row.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

func lineageFingerprint(rows []rel.Tuple, fs []dnf.F) string {
	var b strings.Builder
	for i, row := range rows {
		b.WriteString(row.Key())
		for _, a := range fs[i] {
			b.WriteString("|")
			b.WriteString(a.Key())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// execDB builds two joinable mid-size U-relations with overlapping D
// columns and deliberate duplicate rows (so dedup and grouping paths both
// fire).
func execDB() (*Relation, *Relation, *vars.Table) {
	rng := rand.New(rand.NewSource(77))
	tab := vars.NewTable()
	nv := 24
	for i := 0; i < nv; i++ {
		tab.Add("v"+strconv.Itoa(i), []float64{0.5, 0.5}, nil)
	}
	mk := func(schema rel.Schema, n, keys int) *Relation {
		r := NewRelation(schema)
		for i := 0; i < n; i++ {
			d := vars.MustAssignment(vars.Binding{
				Var: vars.Var(rng.Intn(nv)),
				Alt: int32(rng.Intn(2)),
			})
			row := make(rel.Tuple, len(schema))
			row[0] = rel.Int(int64(rng.Intn(keys)))
			for j := 1; j < len(row); j++ {
				row[j] = rel.Int(int64(rng.Intn(8))) // few values → duplicates
			}
			r.Add(d, row)
		}
		return r
	}
	a := mk(rel.NewSchema("K", "A"), 9000, 800)
	b := mk(rel.NewSchema("K", "B"), 7000, 800)
	return a, b, tab
}

// TestExecWorkersBitIdentical is the exact-algebra mirror of the sampler's
// worker-count invariant: the operators are sequential whatever the pool,
// so an Exec over 1, 4 or 8 workers must produce output byte-identical
// (content and order) to the one-worker package-level path; only
// CertExact's per-group confidences use the pool.
func TestExecWorkersBitIdentical(t *testing.T) {
	a, b, _ := execDB()
	pred := expr.Ge(expr.A("A"), expr.CInt(3))
	targets := []expr.Target{expr.Keep("K"), expr.As("S", expr.Add(expr.A("A"), expr.A("B")))}

	// Product crosses every pair, so cross small prefixes of the inputs
	// (a 9 000-tuple probe side).
	prodA, prodB := prefixRel(a, 9000), renameRel(prefixRel(b, 40), "K2", "B2")

	wantJoin := relFingerprint(Join(a, b))
	joined := Join(a, b)
	wantSel := relFingerprint(Select(joined, pred))
	wantProj := relFingerprint(Project(joined, targets))
	wantLin := lineageFingerprint(seqExec.Lineage(joined))

	aw, _ := Product(prodA, prodB)
	wantProd := relFingerprint(aw)

	for _, workers := range []int{1, 4, 8} {
		x := NewExec(sched.New(workers), NewCounters())
		if got := relFingerprint(x.Join(a, b)); got != wantJoin {
			t.Errorf("workers=%d: Join output differs from sequential", workers)
		}
		if got := relFingerprint(x.Select(joined, pred)); got != wantSel {
			t.Errorf("workers=%d: Select output differs from sequential", workers)
		}
		if got := relFingerprint(x.Project(joined, targets)); got != wantProj {
			t.Errorf("workers=%d: Project output differs from sequential", workers)
		}
		if got := lineageFingerprint(x.Lineage(joined)); got != wantLin {
			t.Errorf("workers=%d: Lineage output differs from sequential", workers)
		}
		p, err := x.Product(prodA, prodB)
		if err != nil {
			t.Fatal(err)
		}
		if got := relFingerprint(p); got != wantProd {
			t.Errorf("workers=%d: Product output differs from sequential", workers)
		}
	}
}

// prefixRel copies the first n (D, row) pairs of r.
func prefixRel(r *Relation, n int) *Relation {
	out := NewRelation(r.Schema())
	for i, t := range r.Tuples() {
		if i == n {
			break
		}
		out.Add(t.D, t.Row)
	}
	return out
}

// renameRel copies r under fresh attribute names (so Product's disjointness
// check passes).
func renameRel(r *Relation, names ...string) *Relation {
	out := NewRelation(rel.NewSchema(names...))
	for _, t := range r.Tuples() {
		out.Add(t.D, t.Row)
	}
	return out
}

// TestExecCounters sanity-checks the per-operator statistics: calls and
// tuple counts must reflect the work done.
func TestExecCounters(t *testing.T) {
	a, b, _ := execDB()
	ctrs := NewCounters()
	x := NewExec(sched.New(4), ctrs)
	out := x.Join(a, b)
	x.Lineage(out)
	stats := ctrs.Snapshot()
	js, ok := stats["join"]
	if !ok || js.Calls != 1 {
		t.Fatalf("join stats missing or wrong: %+v", stats)
	}
	if js.TuplesIn != int64(a.Len()+b.Len()) || js.TuplesOut != int64(out.Len()) {
		t.Errorf("join tuple counts: %+v, want in=%d out=%d", js, a.Len()+b.Len(), out.Len())
	}
	if js.Bytes <= 0 {
		t.Errorf("join bytes estimate not positive: %+v", js)
	}
	if ls := stats["lineage"]; ls.Calls != 1 || ls.TuplesIn != int64(out.Len()) {
		t.Errorf("lineage stats: %+v, want 1 call over %d tuples", ls, out.Len())
	}
}

// TestHashedDedupSemantics pins the hash-index change: numeric values that
// are Compare-equal across the int/float divide still dedup together, and
// genuinely distinct pairs stay distinct.
func TestHashedDedupSemantics(t *testing.T) {
	r := NewRelation(rel.NewSchema("A"))
	if !r.Add(nil, rel.Tuple{rel.Int(1)}) {
		t.Fatal("first insert rejected")
	}
	if r.Add(nil, rel.Tuple{rel.Float(1)}) {
		t.Error("⟨1.0⟩ did not dedup against ⟨1⟩")
	}
	tab := vars.NewTable()
	v := tab.Add("x", []float64{0.5, 0.5}, nil)
	if !r.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: 1}), rel.Tuple{rel.Int(1)}) {
		t.Error("distinct D column treated as duplicate")
	}
	if r.Len() != 2 {
		t.Fatalf("relation has %d pairs, want 2", r.Len())
	}
}
