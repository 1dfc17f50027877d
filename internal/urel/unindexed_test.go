package urel

import (
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/vars"
)

// Select, RepairKey, Project over a D-key input, WithColumn, hydrate and −c
// append their output unhashed and without a dedup index. These tests run
// every operation that probes a relation over such an output and over an
// indexed copy of it: tuples, their order and footprint must agree, and
// probing a published input must leave it unindexed.

// indexedCopy rebuilds r pair by pair through addPair, the indexed path.
func indexedCopy(r *Relation) *Relation {
	out := NewRelation(r.schema)
	for _, t := range r.tuples {
		out.addPair(utHash(t.D, t.Row), t.D, t.Row, false)
	}
	return out
}

func sameRelation(t *testing.T, name string, got, want *Relation) {
	t.Helper()
	if g, w := relFingerprint(got), relFingerprint(want); g != w {
		t.Errorf("%s: tuples differ\n got %s\nwant %s", name, g, w)
	}
	if got.bytes != want.bytes {
		t.Errorf("%s: footprint differs", name)
	}
}

// unindexedOutputs returns a Select output over an uncertain relation, a
// RepairKey output, a Select output over a complete relation (the input −c
// needs), a Project over the D-key RepairKey output, a WithColumn relation
// and a spilled-then-hydrated complete relation, each with an indexed copy.
func unindexedOutputs(t *testing.T) (outs, refs []*Relation, names []string) {
	a, _, _ := execDB()
	sel := Select(a, expr.Ge(expr.A("A"), expr.CInt(3)))

	base := rel.NewRelation(rel.NewSchema("K", "A", "W"))
	for i := 0; i < 3000; i++ {
		base.Add(rel.Tuple{rel.Int(int64(i % 400)), rel.Int(int64(i % 9)), rel.Int(int64(i%5 + 1))})
	}
	comp := FromComplete(base)
	rk, err := RepairKey(comp, []string{"K"}, "W", vars.NewTable(), "rk")
	if err != nil {
		t.Fatal(err)
	}
	selC := Select(comp, expr.Ge(expr.A("A"), expr.CInt(4)))
	proj := Project(rk, []expr.Target{expr.Keep("K"), expr.As("V", expr.Add(expr.A("A"), expr.A("W")))})
	if !proj.DKey() {
		t.Fatal("Project over a RepairKey output is not D-key")
	}
	rows := Poss(comp).Tuples()
	withCol := WithColumn(comp.schema, "X", rows, func(i int) rel.Value { return rel.Int(int64(i % 3)) })
	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sp.Close() })
	hydrated := FromComplete(Poss(comp))
	if sp.spillOut(hydrated); !hydrated.Spilled() || hydrated.hydrate() != nil {
		t.Fatal("spill round trip failed")
	}

	outs = []*Relation{sel, rk, selC, proj, withCol, hydrated}
	for i, r := range outs {
		if r.idx.Built() {
			t.Fatalf("output %d carries an index", i)
		}
		refs = append(refs, indexedCopy(r))
	}
	return outs, refs, []string{"select", "repairkey", "select over complete", "D-key project", "withcolumn", "hydrated"}
}

func TestUnindexedUnionClone(t *testing.T) {
	outs, refs, names := unindexedOutputs(t)
	other, _, _ := execDB() // the source of outs[0]: every selected pair is in it
	for i, r := range outs {
		ref := refs[i]
		// Union takes r's tuples through Clone (left) and addPair (right);
		// r ∪ r merges every pair with its twin.
		for _, s := range []*Relation{r, ref} {
			sameRelation(t, names[i]+" ∪ itself", mustUnion(t, r, s), mustUnion(t, ref, ref))
		}
		if i == 0 {
			sameRelation(t, names[i]+" ∪ other", mustUnion(t, r, other), mustUnion(t, ref, other))
			sameRelation(t, "other ∪ "+names[i], mustUnion(t, other, r), mustUnion(t, other, ref))
		}
		// A clone's inserts reject r's pairs and keep new ones, in order.
		c, cref := r.Clone(), ref.Clone()
		sameRelation(t, names[i]+" clone", c, cref)
		row := slices.Clone(r.tuples[0].Row)
		d := vars.Assignment{{Var: 900, Alt: 1}}
		for _, x := range []*Relation{c, cref} {
			if x.Add(r.tuples[len(r.tuples)/2].D, r.tuples[len(r.tuples)/2].Row) || !x.Add(d, row) {
				t.Errorf("%s clone: Add of a stored pair must fail, of a new pair succeed", names[i])
			}
		}
		sameRelation(t, names[i]+" clone after Add", c, cref)
		if r.idx.Built() || r.Len() != ref.Len() {
			t.Errorf("%s: Union or Clone wrote to its input", names[i])
		}
	}
}

func mustUnion(t *testing.T, a, b *Relation) *Relation {
	t.Helper()
	u, err := Union(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUnindexedDiffComplete(t *testing.T) {
	outs, refs, names := unindexedOutputs(t)
	selC, ref := outs[2], refs[2]
	comp := FromComplete(Poss(outs[1])) // every base row
	for _, workers := range []int{1, 4} {
		x := NewExec(sched.New(workers), nil)
		for _, p := range []struct{ a, b, refA, refB *Relation }{
			{comp, selC, comp, ref}, {selC, comp, ref, comp}, {selC, selC, ref, ref},
		} {
			got, err := x.DiffComplete(p.a, p.b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := x.DiffComplete(p.refA, p.refB)
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, "−c", got, want)
			if got.idx.Built() {
				t.Error("−c built an index on its output, a subset of its left input")
			}
		}
	}
	if d, _ := DiffComplete(comp, selC); d.Len() != comp.Len()-selC.Len() {
		t.Errorf("−c kept %d rows, want %d", d.Len(), comp.Len()-selC.Len())
	}
	if selC.idx.Built() {
		t.Error("−c built an index on its published input")
	}
	// −c over every complete output, against a subset of itself (an
	// unindexed Select output) and itself.
	for i, o := range outs {
		if !o.IsComplete() {
			continue
		}
		ref, sub := refs[i], Select(o, expr.Lt(expr.A("K"), expr.CInt(200)))
		for _, p := range []struct{ a, b, refA, refB *Relation }{
			{o, sub, ref, sub}, {sub, o, sub, ref}, {o, o, ref, ref},
		} {
			got, err := DiffComplete(p.a, p.b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := DiffComplete(p.refA, p.refB)
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, names[i]+" −c", got, want)
		}
		if o.idx.Built() || sub.idx.Built() {
			t.Errorf("%s: −c built an index on its published input", names[i])
		}
	}
}

func TestUnindexedAdd(t *testing.T) {
	outs, refs, names := unindexedOutputs(t)
	for i, r := range outs {
		r, ref := r.Clone(), refs[i].Clone()
		last := r.tuples[len(r.tuples)-1]
		d := vars.Assignment{{Var: 901, Alt: 0}}
		for _, x := range []*Relation{r, ref} {
			if x.Add(last.D, last.Row) || x.Add(r.tuples[0].D, r.tuples[0].Row) || !x.Add(d, last.Row) || x.Add(d, last.Row) {
				t.Errorf("%s: Add must reject stored pairs and accept a new one once", names[i])
			}
		}
		sameRelation(t, names[i]+" after Add", r, ref)
	}
}

func TestUnindexedSpillRoundTrip(t *testing.T) {
	outs, refs, names := unindexedOutputs(t)
	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i, r := range outs {
		name, ref := names[i], refs[i]
		want := relFingerprint(ref)
		sp.spillOut(r)
		if !r.Spilled() {
			t.Fatalf("%s: not spilled", name)
		}
		if err := r.hydrate(); err != nil {
			t.Fatal(err)
		}
		if r.idx.Built() {
			t.Errorf("%s: hydrate built an index", name)
		}
		if relFingerprint(r) != want || r.bytes != ref.bytes {
			t.Errorf("%s: hydrated relation differs from the indexed one", name)
		}
		// The first insert after hydrating builds the index, hashing the
		// stored pairs: they are still found.
		if r.Add(ref.tuples[0].D, ref.tuples[0].Row) {
			t.Errorf("%s: hydrated relation accepted a stored pair", name)
		}
	}
}
