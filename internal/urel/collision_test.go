package urel

import (
	"slices"
	"testing"

	"repro/internal/rel"
	"repro/internal/vars"
)

// These tests drive every rel.Index consumer of the package through its
// hashed entry point with ONE hash for unequal keys. Identity must come
// from value equality alone; a colliding hash may cost a comparison, never
// merge two things.

const forcedHash = 0xC0111DE

func TestRelationForcedCollisions(t *testing.T) {
	r := NewRelation(rel.NewSchema("A", "B"))
	x := vars.MustAssignment(vars.Binding{Var: 0, Alt: 0})
	y := vars.MustAssignment(vars.Binding{Var: 0, Alt: 1})
	row1 := rel.Tuple{rel.Int(1), rel.String("p")}
	row2 := rel.Tuple{rel.Int(2), rel.String("p")}
	for i, p := range []struct {
		d    vars.Assignment
		row  rel.Tuple
		want bool
	}{
		{x, row1, true},
		{x, row2, true},  // same D, other row
		{y, row1, true},  // same row, other D
		{x, row1, false}, // exact duplicate
		{nil, row1, true},
		{y, rel.Tuple{rel.Float(1), rel.String("p")}, false}, // value-equal to (y, row1)
	} {
		if got := r.addPair(forcedHash, p.d, p.row, true); got != p.want {
			t.Errorf("insert %d (%v, %v): added = %v, want %v", i, p.d, p.row, got, p.want)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4 distinct pairs", r.Len())
	}
	if pos, _ := r.find(r.idx, forcedHash, y, row1); pos != 2 {
		t.Errorf("find(y, row1) = %d, want position 2", pos)
	}
	if pos, _ := r.find(r.idx, forcedHash, y, row2); pos != -1 {
		t.Errorf("find of an absent pair = %d, want -1", pos)
	}

	// A clone keeps the colliding index; a spilled-and-hydrated copy, which
	// stores no hashes, indexes its pairs under their own on the first
	// insert. Both keep the four pairs apart and still reject the
	// duplicates.
	check := func(name string, c *Relation, hash func(vars.Assignment, rel.Tuple) uint64) {
		t.Helper()
		if got, want := relFingerprint(c), relFingerprint(r); got != want {
			t.Errorf("%s differs:\n%s\nwant\n%s", name, got, want)
		}
		if c.addPair(hash(x, row2), x, row2, true) || !c.addPair(hash(y, row2), y, row2, true) {
			t.Errorf("%s: dedup is wrong after the copy", name)
		}
	}
	check("clone", r.Clone(), func(vars.Assignment, rel.Tuple) uint64 { return forcedHash })
	sp, err := NewSpill(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	c := r.Clone()
	sp.spillOut(c)
	if err := c.hydrate(); err != nil {
		t.Fatal(err)
	}
	check("hydrated copy", c, utHash)
}

func TestLineageGrouperForcedCollisions(t *testing.T) {
	g := &lineageGrouper{idx: rel.NewIndex(0)}
	rowA := rel.Tuple{rel.String("a")}
	rowB := rel.Tuple{rel.String("b")}
	ids := []int32{
		g.at(forcedHash, rowA),
		g.at(forcedHash, rowB),
		g.at(forcedHash, rowA),
		g.at(forcedHash, rowB),
		g.at(forcedHash, rowB),
		g.at(forcedHash, rel.Tuple{rel.String("c")}),
	}
	if !slices.Equal(ids, []int32{0, 1, 0, 1, 1, 2}) {
		t.Fatalf("group ids %v, want [0 1 0 1 1 2] (a, b, c in first-appearance order)", ids)
	}
	if len(g.rows) != 3 || g.rows[0][0].AsString() != "a" || g.rows[1][0].AsString() != "b" || g.rows[2][0].AsString() != "c" {
		t.Fatalf("group rows %v, want a, b, c", g.rows)
	}
	if !slices.Equal(g.sizes, []int32{2, 3, 1}) {
		t.Errorf("clause counts %v, want [2 3 1]", g.sizes)
	}
}

// TestWitnessIndexForcedCollisions covers repair-key's group and
// alternative tables: tuples that differ on the indexed columns stay
// apart under one hash, tuples that agree on them share a witness whatever
// their other columns hold.
func TestWitnessIndexForcedCollisions(t *testing.T) {
	tuples := []UTuple{
		{Row: rel.Tuple{rel.String("k"), rel.String("alt1"), rel.Int(3)}},
		{Row: rel.Tuple{rel.String("k"), rel.String("alt2"), rel.Int(3)}},
		{Row: rel.Tuple{rel.String("k"), rel.String("alt1"), rel.Int(9)}}, // alt1 again, other weight
		{Row: rel.Tuple{rel.String("j"), rel.String("alt1"), rel.Int(3)}}, // alt1 of another group
	}
	alts := newWitnessIndex(len(tuples))
	cols := []int{0, 1} // every column but the weight
	var got []int32
	for i, ut := range tuples {
		first, head := alts.locate(forcedHash, tuples, ut.Row, cols)
		if first < 0 {
			alts.add(forcedHash, head, i)
			first = int32(i)
		}
		got = append(got, first)
	}
	for i, want := range []int32{0, 1, 0, 3} {
		if got[i] != want {
			t.Errorf("tuple %d: witness %d, want %d", i, got[i], want)
		}
	}
}
