package vars

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/rel"
)

func mustAdd(t *testing.T, tab *Table, name string, probs ...float64) Var {
	t.Helper()
	return tab.Add(name, probs, nil)
}

func TestTableAddAndLookup(t *testing.T) {
	tab := NewTable()
	x := mustAdd(t, tab, "x", 0.5, 0.5)
	y := mustAdd(t, tab, "y", 0.2, 0.3, 0.5)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if got := tab.Name(x); got != "x" {
		t.Errorf("Name(x) = %q", got)
	}
	if a, b := tab.Info(x).ID, tab.Info(y).ID; a == b {
		t.Errorf("x and y share identity %x", a)
	}
	if tab.DomSize(y) != 3 {
		t.Error("DomSize wrong")
	}
	if tab.Prob(y, 2) != 0.5 {
		t.Error("Prob wrong")
	}
	if tab.WorldCount() != 6 {
		t.Errorf("WorldCount = %d", tab.WorldCount())
	}
}

func TestTableAddValidation(t *testing.T) {
	for name, fn := range map[string]func(*Table){
		"empty":       func(tab *Table) { tab.Add("x", nil, nil) },
		"zero prob":   func(tab *Table) { tab.Add("x", []float64{0, 1}, nil) },
		"neg prob":    func(tab *Table) { tab.Add("x", []float64{-0.5, 1.5}, nil) },
		"bad sum":     func(tab *Table) { tab.Add("x", []float64{0.5, 0.4}, nil) },
		"altname len": func(tab *Table) { tab.Add("x", []float64{0.5, 0.5}, []string{"a"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn(NewTable())
		}()
	}
}

func TestAssignmentBasics(t *testing.T) {
	a := MustAssignment(Binding{Var: 2, Alt: 1}, Binding{Var: 0, Alt: 0})
	if a.Len() != 2 {
		t.Fatal("Len wrong")
	}
	if alt, ok := a.Get(2); !ok || alt != 1 {
		t.Error("Get(2) wrong")
	}
	if _, ok := a.Get(1); ok {
		t.Error("Get(1) should be unbound")
	}
	// Sorted order.
	if a[0].Var != 0 || a[1].Var != 2 {
		t.Error("not sorted")
	}
	if _, err := NewAssignment(Binding{Var: 1, Alt: 0}, Binding{Var: 1, Alt: 1}); err == nil {
		t.Error("conflicting duplicate accepted")
	}
	if dup, err := NewAssignment(Binding{Var: 1, Alt: 0}, Binding{Var: 1, Alt: 0}); err != nil || dup.Len() != 1 {
		t.Error("agreeing duplicate should collapse")
	}
}

func TestConsistencyAndUnion(t *testing.T) {
	a := MustAssignment(Binding{0, 0}, Binding{1, 1})
	b := MustAssignment(Binding{1, 1}, Binding{2, 0})
	c := MustAssignment(Binding{1, 0})
	if !a.ConsistentWith(b) || !b.ConsistentWith(a) {
		t.Error("a,b should be consistent")
	}
	if a.ConsistentWith(c) {
		t.Error("a,c conflict on var 1")
	}
	u, ok := a.Union(b)
	if !ok || u.Len() != 3 {
		t.Fatalf("Union = %v ok=%v", u, ok)
	}
	if _, ok := a.Union(c); ok {
		t.Error("conflicting union should fail")
	}
	// Empty assignment is consistent with everything.
	var empty Assignment
	if !empty.ConsistentWith(a) || !a.ConsistentWith(empty) {
		t.Error("empty must be universally consistent")
	}
}

func TestAssignmentWeight(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, "x", 0.5, 0.5)
	mustAdd(t, tab, "y", 0.2, 0.8)
	a := MustAssignment(Binding{0, 0}, Binding{1, 1})
	if w := a.Weight(tab); math.Abs(w-0.4) > 1e-12 {
		t.Errorf("Weight = %v, want 0.4", w)
	}
	var empty Assignment
	if empty.Weight(tab) != 1 {
		t.Error("empty assignment weight must be 1")
	}
}

func TestWithWithout(t *testing.T) {
	a := MustAssignment(Binding{0, 0}, Binding{2, 1})
	b := a.Without(0)
	if b.Len() != 1 || b[0].Var != 2 {
		t.Errorf("Without = %v", b)
	}
	c := a.With(1, 3)
	if c.Len() != 3 {
		t.Errorf("With = %v", c)
	}
	if alt, ok := c.Get(1); !ok || alt != 3 {
		t.Error("With binding missing")
	}
	d := a.With(0, 5) // overwrite
	if alt, _ := d.Get(0); alt != 5 {
		t.Error("With should overwrite")
	}
	// Original untouched.
	if alt, _ := a.Get(0); alt != 0 {
		t.Error("With mutated receiver")
	}
}

// TestWithTable: With inserts at the sorted position or overwrites, and
// leaves the receiver as it was.
func TestWithTable(t *testing.T) {
	a := MustAssignment(Binding{2, 0}, Binding{5, 1}, Binding{8, 2})
	for _, tc := range []struct {
		name string
		a    Assignment
		v    Var
		alt  int32
		want Assignment
	}{
		{"empty", nil, 4, 1, Assignment{{4, 1}}},
		{"below", a, 1, 3, Assignment{{1, 3}, {2, 0}, {5, 1}, {8, 2}}},
		{"between", a, 6, 3, Assignment{{2, 0}, {5, 1}, {6, 3}, {8, 2}}},
		{"above", a, 9, 3, Assignment{{2, 0}, {5, 1}, {8, 2}, {9, 3}}},
		{"bound", a, 5, 4, Assignment{{2, 0}, {5, 4}, {8, 2}}},
		{"bound same alt", a, 8, 2, Assignment{{2, 0}, {5, 1}, {8, 2}}},
	} {
		before := tc.a.Clone()
		got := tc.a.With(tc.v, tc.alt)
		if !got.Equal(tc.want) {
			t.Errorf("%s: %v.With(%d, %d) = %v, want %v", tc.name, tc.a, tc.v, tc.alt, got, tc.want)
		}
		if !tc.a.Equal(before) {
			t.Errorf("%s: With mutated its receiver to %v", tc.name, tc.a)
		}
	}
}

func TestKeyCanonical(t *testing.T) {
	a := MustAssignment(Binding{3, 1}, Binding{1, 0})
	b := MustAssignment(Binding{1, 0}, Binding{3, 1})
	if a.Key() != b.Key() {
		t.Error("keys of equal assignments differ")
	}
	c := MustAssignment(Binding{1, 1}, Binding{3, 1})
	if a.Key() == c.Key() {
		t.Error("keys of different assignments collide")
	}
}

func TestEnumWorldsWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		tab := NewTable()
		nv := 1 + rng.Intn(4)
		for i := 0; i < nv; i++ {
			k := 2 + rng.Intn(3)
			probs := make([]float64, k)
			sum := 0.0
			for j := range probs {
				probs[j] = rng.Float64() + 0.01
				sum += probs[j]
			}
			for j := range probs {
				probs[j] /= sum
			}
			tab.Add(varName(i), probs, nil)
		}
		total := 0.0
		count := int64(0)
		EnumWorlds(tab, 1<<20, func(w World, weight float64) {
			total += weight
			count++
			if math.Abs(weight-w.Weight(tab)) > 1e-12 {
				t.Fatal("EnumWorlds weight disagrees with World.Weight")
			}
		})
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("world weights sum to %v", total)
		}
		if count != tab.WorldCount() {
			t.Fatalf("count %d != WorldCount %d", count, tab.WorldCount())
		}
	}
}

func varName(i int) string { return string(rune('a' + i)) }

func TestWorldSatisfies(t *testing.T) {
	w := World{0, 1, 2}
	if !w.Satisfies(MustAssignment(Binding{1, 1})) {
		t.Error("should satisfy")
	}
	if w.Satisfies(MustAssignment(Binding{1, 0})) {
		t.Error("should not satisfy")
	}
	if w.Satisfies(MustAssignment(Binding{9, 0})) {
		t.Error("out-of-range var should not satisfy")
	}
	var empty Assignment
	if !w.Satisfies(empty) {
		t.Error("every world satisfies the empty assignment")
	}
}

func TestCloneIndependence(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, "x", 0.5, 0.5)
	cl := tab.Clone()
	cl.Add("y", []float64{1}, nil)
	if tab.Len() != 1 || cl.Len() != 2 {
		t.Error("clone not independent")
	}
	if tab.Name(0) != "x" || cl.Name(1) != "y" {
		t.Errorf("names %q, %q; want x, y", tab.Name(0), cl.Name(1))
	}
}

// Property: for random assignments a, b over disjoint variables, Union
// weight equals product of weights.
func TestUnionWeightProduct(t *testing.T) {
	tab := NewTable()
	for i := 0; i < 6; i++ {
		tab.Add(varName(i), []float64{0.3, 0.7}, nil)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var abs, bbs []Binding
		for v := 0; v < 6; v++ {
			switch rng.Intn(3) {
			case 0:
				abs = append(abs, Binding{Var(v), int32(rng.Intn(2))})
			case 1:
				bbs = append(bbs, Binding{Var(v), int32(rng.Intn(2))})
			}
		}
		a, b := MustAssignment(abs...), MustAssignment(bbs...)
		u, ok := a.Union(b)
		if !ok {
			t.Fatal("disjoint union must succeed")
		}
		if math.Abs(u.Weight(tab)-a.Weight(tab)*b.Weight(tab)) > 1e-12 {
			t.Fatal("union weight != product for disjoint assignments")
		}
	}
}

// TestRegisterClash forces identities to clash — within one registration
// and against an older variable — and checks that none panics, none
// aliases, every clash is counted, and the first holder keeps its
// identity.
func TestRegisterClash(t *testing.T) {
	tab := NewTable()
	x := tab.Add("x", []float64{0.5, 0.5}, nil)
	again := tab.Add("x", []float64{0.25, 0.75}, []string{"a", "b"})
	idX := rel.HashString(rel.HashSeed, "x")
	first := tab.Register([]uint64{idX, 7, 7}, []float64{1, 0.5, 0.5, 0.2, 0.8}, []int32{0, 1, 3, 5}, nil)
	if tab.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tab.Len())
	}
	distinctIDs(t, tab)
	if tab.Info(x).ID != idX || tab.Info(first+1).ID != 7 {
		t.Errorf("the first holders lost their identities: %x, %x", tab.Info(x).ID, tab.Info(first+1).ID)
	}
	if tab.Clashes() != 3 {
		t.Errorf("Clashes = %d, want 3", tab.Clashes())
	}
	if tab.Name(again) != "x" || tab.AltName(again, 1) != "b" || tab.Prob(again, 1) != 0.75 || tab.Prob(first+2, 1) != 0.8 {
		t.Error("a disambiguated variable lost its name or probabilities")
	}
	if got := tab.Name(first); got != "#"+strconv.FormatUint(tab.Info(first).ID, 16) {
		t.Errorf("unnamed variable renders as %q", got)
	}

	// Appending descriptors whose identity is taken disambiguates the
	// copy, never the source.
	cl := NewTable()
	cl.Add("x", []float64{1}, nil)
	src := tab.Since(0)
	cl.Append(src)
	distinctIDs(t, cl)
	if src[0].ID != idX || cl.Clashes() == 0 {
		t.Errorf("Append: source ID %x, clashes %d", src[0].ID, cl.Clashes())
	}
}

func distinctIDs(t *testing.T, tab *Table) {
	t.Helper()
	seen := map[uint64]Var{}
	for v := Var(0); int(v) < tab.Len(); v++ {
		id := tab.Info(v).ID
		if o, dup := seen[id]; dup {
			t.Errorf("variables %d and %d alias identity %x", o, v, id)
		}
		seen[id] = v
	}
}

// TestCloneSharesInfos: a clone shares its descriptors with the original
// until it registers, and its registrations never write the original's.
func TestCloneSharesInfos(t *testing.T) {
	tab := NewTable()
	tab.Add("x", []float64{0.5, 0.5}, nil)
	before := tab.Since(0)
	cl := tab.Clone()
	if &cl.infos[0] != &tab.infos[0] {
		t.Error("Clone copied the descriptors")
	}
	cl.Add("x", []float64{0.5, 0.5}, nil)
	if tab.Len() != 1 || tab.Clashes() != 0 || !reflect.DeepEqual(tab.Since(0), before) {
		t.Error("a clone's registration changed the original")
	}
}
