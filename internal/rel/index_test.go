package rel

import (
	"reflect"
	"testing"
)

// chain collects the positions of h's chain in traversal order.
func chain(ix Index, h uint64) []int32 {
	var out []int32
	for p := ix.First(h); p >= 0; p = ix.Next(p) {
		out = append(out, p)
	}
	return out
}

func TestIndexAppendChainsMostRecentFirst(t *testing.T) {
	ix := NewIndex(0)
	for _, h := range []uint64{7, 9, 7, 7, 0, 9} {
		ix.Append(h, ix.First(h))
	}
	for h, want := range map[uint64][]int32{7: {3, 2, 0}, 9: {5, 1}, 0: {4}, 8: nil} {
		if got := chain(ix, h); !reflect.DeepEqual(got, want) {
			t.Errorf("chain(%d) = %v, want %v", h, got, want)
		}
	}

	// A clone is independent in both directions.
	cl := ix.Clone()
	cl.Append(7, cl.First(7))
	ix.Append(9, ix.First(9))
	if got, want := chain(ix, 7), []int32{3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("original chain(7) after clone append = %v, want %v", got, want)
	}
	if got, want := chain(cl, 7), []int32{6, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("clone chain(7) = %v, want %v", got, want)
	}
	if got, want := chain(cl, 9), []int32{5, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("clone chain(9) after original append = %v, want %v", got, want)
	}
}

func TestBuildIndexChainsInInsertionOrder(t *testing.T) {
	ix := BuildIndex([]uint64{7, 9, 7, 7, 0, 9})
	for h, want := range map[uint64][]int32{7: {0, 2, 3}, 9: {1, 5}, 0: {4}, 8: nil} {
		if got := chain(ix, h); !reflect.DeepEqual(got, want) {
			t.Errorf("chain(%d) = %v, want %v", h, got, want)
		}
	}
	if empty := BuildIndex(nil); empty.First(0) != -1 {
		t.Error("empty build must index nothing")
	}
	var zero Index
	if zero.First(3) != -1 {
		t.Error("the zero Index must read as empty")
	}
}

// TestRelationForcedCollisions drives the hashed insert with one hash for
// unequal tuples: identity must come from value equality, the hash only
// narrows the candidates.
func TestRelationForcedCollisions(t *testing.T) {
	r := NewRelation(NewSchema("A", "B"))
	a := Tuple{Int(1), String("x")}
	b := Tuple{Int(1), String("y")}
	c := Tuple{Int(2), String("x")}
	const h = 42
	if !r.addHashed(h, a, true) || !r.addHashed(h, b, true) {
		t.Fatal("two distinct tuples under one hash must both be stored")
	}
	if r.addHashed(h, Tuple{Float(1), String("x")}, true) {
		t.Error("a value-equal tuple (Int 1 = Float 1) under the same hash must be a duplicate")
	}
	if !r.addHashed(h, c, true) {
		t.Error("a third distinct tuple under the same hash must be stored")
	}
	if got := r.Tuples(); len(got) != 3 || !got[0].Equal(a) || !got[1].Equal(b) || !got[2].Equal(c) {
		t.Errorf("tuples = %v, want [%v %v %v] in insertion order", got, a, b, c)
	}
}
