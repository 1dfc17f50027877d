package rel

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"reflect"
	"slices"
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

// modelIndex is the reference Index is checked against: a Go map from a
// hash to 1 + the head of its chain, beside the same next links.
type modelIndex struct {
	head map[uint64]int32
	next []int32
}

func newModel() *modelIndex { return &modelIndex{head: map[uint64]int32{}} }

func buildModel(hashes []uint64) *modelIndex {
	m := &modelIndex{head: make(map[uint64]int32, len(hashes)), next: make([]int32, len(hashes))}
	for i := len(hashes) - 1; i >= 0; i-- {
		m.next[i] = m.head[hashes[i]] - 1
		m.head[hashes[i]] = int32(i) + 1
	}
	return m
}

func (m *modelIndex) First(h uint64) int32 { return m.head[h] - 1 }

func (m *modelIndex) Append(h uint64, head int32) {
	m.next = append(m.next, head)
	m.head[h] = int32(len(m.next))
}

func (m *modelIndex) chain(h uint64) []int32 {
	var out []int32
	for p := m.First(h); p >= 0; p = m.next[p] {
		out = append(out, p)
	}
	return out
}

// sameHome returns k distinct hashes whose probes all start at slot 0 of
// every table up to 2¹⁶ slots: appended together they form one probe
// cluster, so a lookup walks past the others' slots.
func sameHome(k int) []uint64 {
	var out []uint64
	for x := uint64(1); len(out) < k; x++ {
		if h := Mix64(x); h*fib>>48 == 0 {
			out = append(out, h)
		}
	}
	return out
}

// alphabet returns k hashes: half from one probe cluster, half spread,
// plus 0, which the table must not confuse with an empty slot.
func alphabet(k int) []uint64 {
	out := append(sameHome(k/2), 0)
	for x := uint64(0); len(out) < k; x++ {
		out = append(out, Mix64(x^0xabcdef))
	}
	return out
}

// checkAgainst compares every chain of hs, and of some absent hashes, in
// ix with the model's.
func checkAgainst(t *testing.T, label string, ix Index, m *modelIndex, hs []uint64) {
	t.Helper()
	for _, h := range append(append([]uint64(nil), hs...), 1, 2, ^uint64(0)) {
		if got, want := chain(ix, h), m.chain(h); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: chain(%#x) = %v, want %v", label, h, got, want)
		}
	}
}

// TestIndexMatchesModel checks the open-addressed Index against the map
// model: random streams, BuildIndex's chain order, Clone's independence
// and the zero Index.
func TestIndexMatchesModel(t *testing.T) {
	t.Run("streams", testStreamsMatchModel)
	t.Run("build", testBuildMatchesModel)
	t.Run("clone", testCloneIndependent)
	t.Run("zero", testZeroIndex)
}

// testStreamsMatchModel drives both with one random stream over a small
// hash alphabet (long chains, one probe cluster), at size hints 0, 1,
// exact and too small, so the table grows.
func testStreamsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, k := range []int{1, 2, 5, 40, 300} {
		hs := alphabet(k)
		for _, n := range []int{1, 7, 64, 3000} {
			for _, hint := range []int{0, 1, n, n / 10} {
				label := fmt.Sprintf("k=%d n=%d hint=%d", k, n, hint)
				ix, m := NewIndex(hint), newModel()
				if !ix.Built() {
					t.Fatalf("%s: NewIndex must be built", label)
				}
				for i := 0; i < n; i++ {
					h := hs[rng.IntN(len(hs))]
					head := ix.First(h)
					if want := m.First(h); head != want {
						t.Fatalf("%s: step %d First(%#x) = %d, want %d", label, i, h, head, want)
					}
					ix.Append(h, head)
					m.Append(h, head)
				}
				checkAgainst(t, label, ix, m, hs)
			}
		}
	}
}

// testBuildMatchesModel checks BuildIndex's chains, oldest first, and
// appends after a build.
func testBuildMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, k := range []int{1, 3, 40, 300} {
		hs := alphabet(k)
		for _, n := range []int{0, 1, 5, 1000} {
			in := make([]uint64, n, n+len(hs)) // spare capacity an Append must not use
			for i := range in {
				in[i] = hs[rng.IntN(len(hs))]
			}
			ix, m := BuildIndex(in), buildModel(in)
			checkAgainst(t, fmt.Sprintf("k=%d n=%d", k, n), ix, m, hs)
			// Oldest first: every chain ascends.
			for _, h := range hs {
				c := chain(ix, h)
				if !slices.IsSorted(c) {
					t.Fatalf("k=%d n=%d: chain(%#x) = %v is not oldest first", k, n, h, c)
				}
			}
			// Appending after a build links in front, as NewIndex's does,
			// and leaves the caller's slice alone.
			before := slices.Clone(in[:cap(in)])
			for _, h := range hs {
				ix.Append(h, ix.First(h))
				m.Append(h, m.First(h))
			}
			checkAgainst(t, fmt.Sprintf("k=%d n=%d appended", k, n), ix, m, hs)
			if !slices.Equal(in[:cap(in)], before) {
				t.Fatalf("k=%d n=%d: Append after BuildIndex wrote into the caller's hashes", k, n)
			}
		}
	}
}

// testCloneIndependent appends to a clone and its source, past a
// doubling each, and checks neither sees the other's positions.
func testCloneIndependent(t *testing.T) {
	hs := alphabet(40)
	ix, m := NewIndex(0), newModel()
	for i := 0; i < 200; i++ {
		h := hs[i*7%len(hs)]
		ix.Append(h, ix.First(h))
		m.Append(h, m.First(h))
	}
	cl, cm := ix.Clone(), &modelIndex{head: maps.Clone(m.head), next: slices.Clone(m.next)}
	// Grow both past a doubling in different directions.
	for i := 0; i < 500; i++ {
		h := Mix64(uint64(i))
		cl.Append(h, cl.First(h))
		cm.Append(h, cm.First(h))
		g := hs[i%len(hs)]
		ix.Append(g, ix.First(g))
		m.Append(g, m.First(g))
	}
	checkAgainst(t, "source", ix, m, hs)
	checkAgainst(t, "clone", cl, cm, hs)
	for i := 0; i < 500; i++ {
		if h := Mix64(uint64(i)); ix.First(h) != m.First(h) {
			t.Fatalf("a clone's append reached its source: First(%#x) = %d", h, ix.First(h))
		}
	}
	if var0 := (Index{}).Clone(); var0.Built() {
		t.Error("the zero Index must clone to the zero Index")
	}
}

func testZeroIndex(t *testing.T) {
	var zero Index
	if zero.Built() {
		t.Error("the zero Index must report Built() == false")
	}
	for _, h := range []uint64{0, 1, ^uint64(0)} {
		if p := zero.First(h); p != -1 {
			t.Errorf("zero First(%#x) = %d, want -1", h, p)
		}
	}
}

// FuzzIndex decodes a byte stream into Append/First/Next calls on a fresh
// Index and the map model: the first byte is NewIndex's hint, every
// further byte one operation on a hash of alphabet(24) — low two bits
// 0 or 1 append, 2 compares First, 3 walks the whole chain. Streams are cut
// at 4 096 operations: chain walks make a longer one quadratic.
func FuzzIndex(f *testing.F) {
	hs := alphabet(24)
	for _, seed := range [][]byte{
		{0, 0, 4, 0, 0, 8, 4}, // TestIndexAppendChainsMostRecentFirst's stream
		{1, 1, 1, 1, 1, 2, 3},
		{24, 0, 5, 9, 13, 17, 21, 25, 29, 2, 3, 6, 7},
		{3, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 3, 7, 11},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		ops = ops[:min(len(ops), 4097)]
		ix, m := NewIndex(int(ops[0])), newModel()
		for i, op := range ops[1:] {
			h := hs[int(op>>2)%len(hs)]
			switch op & 3 {
			case 0, 1:
				head := ix.First(h)
				ix.Append(h, head)
				m.Append(h, head)
			case 2:
				if got, want := ix.First(h), m.First(h); got != want {
					t.Fatalf("op %d: First(%#x) = %d, want %d", i, h, got, want)
				}
			case 3:
				if got, want := chain(ix, h), m.chain(h); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: chain(%#x) = %v, want %v", i, h, got, want)
				}
			}
		}
		checkAgainst(t, "end", ix, m, hs)
	})
}

// BenchmarkIndex measures the identity's two uses: Append after First
// (dedup, grouping) with all hashes distinct or each repeated once, and
// BuildIndex (the join's build side).
func BenchmarkIndex(b *testing.B) {
	for _, n := range []int{100, 10_000, 1_000_000} {
		for _, rep := range []int{0, 50} {
			hs := make([]uint64, n)
			for i := range hs {
				x := uint64(i)
				if rep > 0 {
					x /= 2
				}
				hs[i] = Mix64(x)
			}
			b.Run(fmt.Sprintf("append+first/n=%d/repeated=%d%%", n, rep), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ix := NewIndex(0)
					for _, h := range hs {
						ix.Append(h, ix.First(h))
					}
					indexSink = ix
				}
			})
			b.Run(fmt.Sprintf("build/n=%d/repeated=%d%%", n, rep), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					indexSink = BuildIndex(hs)
				}
			})
		}
	}
}

// indexSink keeps BenchmarkIndex's indexes live.
var indexSink Index
