package dnf

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/vars"
)

// The string-keyed identity this package used before clauses were
// deduplicated by hash and the Shannon memo keyed by a set fingerprint:
// kept here as the reference the hashed forms must match clause for clause
// and bit for bit.

func refDedup(f F) F {
	seen := make(map[string]bool, len(f))
	out := make(F, 0, len(f))
	for _, a := range f {
		if len(a) == 0 {
			return F{vars.Assignment{}}
		}
		k := a.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, a)
	}
	return out
}

// refKey is the old canonical memoization key: sorted clause keys.
func refKey(f F) string {
	keys := make([]string, len(f))
	for i, a := range f {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func refShannon(f F, t *vars.Table, memo map[string]float64) float64 {
	f = refDedup(f)
	if len(f) == 0 {
		return 0
	}
	if len(f[0]) == 0 {
		return 1
	}
	key := refKey(f)
	if p, ok := memo[key]; ok {
		return p
	}
	x := pickVar(f)
	p := 0.0
	for alt := 0; alt < t.DomSize(x); alt++ {
		p += t.Prob(x, alt) * refShannon(condition(f, x, int32(alt)), t, memo)
	}
	memo[key] = p
	return p
}

func refConfidence(f F, t *vars.Table) float64 {
	f = refDedup(f)
	if len(f) == 0 {
		return 0
	}
	if len(f[0]) == 0 {
		return 1
	}
	p := 1.0
	for _, comp := range components(f) {
		p *= 1 - refShannon(comp, t, make(map[string]float64))
	}
	return 1 - p
}

// refFactor is Factor over the reference Shannon expansion.
func refFactor(f F, t *vars.Table, lim FactorLimits) Factored {
	if len(f) == 0 {
		return Factored{}
	}
	if len(f[0]) == 0 {
		return Factored{Exact: 1, ExactComponents: 1}
	}
	comps := components(f)
	if len(comps) == 1 && !easyComponent(comps[0], lim) {
		return Factored{Residue: f}
	}
	missAll := 1.0
	out := Factored{}
	for _, comp := range comps {
		if !easyComponent(comp, lim) {
			out.Residue = append(out.Residue, comp...)
			continue
		}
		pc := refShannon(comp, t, make(map[string]float64))
		missAll *= 1 - pc
		out.ExactComponents++
	}
	out.Exact = 1 - missAll
	return out
}

// adversarialF draws clause sets shaped to stress identity: verbatim
// duplicates (adjacent and far apart), the same clause built from
// differently ordered bindings, an occasional empty clause, chains of
// clauses sharing one variable with the next (one long component whose
// conditioned residues repeat — memo hits), and independent islands.
func adversarialF(rng *rand.Rand, t *vars.Table) F {
	var f F
	lit := func(v int) vars.Binding {
		return vars.Binding{Var: vars.Var(v), Alt: int32(rng.Intn(t.DomSize(vars.Var(v))))}
	}
	n := t.Len()
	switch rng.Intn(4) {
	case 0: // shared-variable chain x0x1, x1x2, x2x3, …
		start, length := rng.Intn(n/2), 2+rng.Intn(n/2)
		for i := start; i < start+length && i+1 < n; i++ {
			if a, err := vars.NewAssignment(lit(i), lit(i+1)); err == nil {
				f = append(f, a)
			}
		}
	case 1: // star: every clause mentions variable 0
		for i := 1; i < 2+rng.Intn(n-1); i++ {
			if a, err := vars.NewAssignment(lit(0), lit(i)); err == nil {
				f = append(f, a)
			}
		}
	default:
		f = randomF(rng, t, 10, 4)
	}
	if len(f) == 0 {
		f = randomF(rng, t, 4, 2)
	}
	// Duplicates: re-insert existing clauses, some rebuilt with their
	// bindings reversed (NewAssignment canonicalizes the order).
	for i := rng.Intn(4); i > 0; i-- {
		src := f[rng.Intn(len(f))]
		dup := src
		if rng.Intn(2) == 0 {
			bs := make([]vars.Binding, len(src))
			for j, b := range src {
				bs[len(src)-1-j] = b
			}
			dup = vars.MustAssignment(bs...)
		}
		at := rng.Intn(len(f) + 1)
		f = append(f[:at], append(F{dup}, f[at:]...)...)
	}
	if rng.Intn(12) == 0 {
		at := rng.Intn(len(f) + 1)
		f = append(f[:at], append(F{vars.Assignment{}}, f[at:]...)...)
	}
	return f
}

func sameClauses(a, b F) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// TestHashedIdentityMatchesStringReference: over seeded random clause
// sets, Dedup returns the reference's clauses in the reference's order, and
// Confidence, ConfidenceNoFactoring and Factor return the reference's
// floats bit for bit.
func TestHashedIdentityMatchesStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240916))
	sawDup, sawEmpty, sawResidue := 0, 0, 0
	for trial := 0; trial < 1500; trial++ {
		tab := newTable(rng, 4+rng.Intn(9))
		if rng.Intn(3) == 0 { // some three-valued variables
			tab.Add("t", []float64{0.2, 0.3, 0.5}, nil)
		}
		f := adversarialF(rng, tab)

		got, want := f.Dedup(), refDedup(f)
		if !sameClauses(got, want) {
			t.Fatalf("trial %d: Dedup(%v)\n got %v\nwant %v", trial, f, got, want)
		}
		if len(want) < len(f) {
			sawDup++
		}
		if len(want) == 1 && len(want[0]) == 0 {
			sawEmpty++
		}

		if g, w := Confidence(f, tab), refConfidence(f, tab); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("trial %d: Confidence(%v) = %x, reference %x", trial, f, math.Float64bits(g), math.Float64bits(w))
		}
		if g, w := ConfidenceNoFactoring(f, tab), refShannon(f, tab, map[string]float64{}); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("trial %d: ConfidenceNoFactoring(%v) = %x, reference %x", trial, f, math.Float64bits(g), math.Float64bits(w))
		}
		for _, lim := range []FactorLimits{DefaultFactorLimits, {MaxClauses: 3, MaxVars: 4}} {
			g, w := Factor(want, tab, lim), refFactor(want, tab, lim)
			if math.Float64bits(g.Exact) != math.Float64bits(w.Exact) || g.ExactComponents != w.ExactComponents || !sameClauses(g.Residue, w.Residue) {
				t.Fatalf("trial %d: Factor(%v, %+v) = %+v, reference %+v", trial, want, lim, g, w)
			}
			if len(g.Residue) > 0 {
				sawResidue++
			}
		}
	}
	if sawDup < 300 || sawEmpty < 30 || sawResidue < 100 {
		t.Errorf("generator too tame: %d sets with duplicates, %d with the empty clause, %d factorings with a residue", sawDup, sawEmpty, sawResidue)
	}
}

// TestMemoKeyIsOrderIndependent: the Shannon memo must hit for the same
// residual set reached in another clause order, as the sorted string key
// did — a fingerprint that depended on order would still be correct but
// would silently lose the memo.
func TestMemoKeyIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := newTable(rng, 8)
	for trial := 0; trial < 200; trial++ {
		f := refDedup(randomF(rng, tab, 8, 3))
		if len(f[0]) == 0 {
			continue
		}
		_, key := f.dedup()
		shuffled := append(F(nil), f...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if _, k2 := shuffled.dedup(); k2 != key {
			t.Fatalf("trial %d: key of %v changed under reordering", trial, f)
		}
		if len(f) > 1 {
			if _, k3 := f[1:].dedup(); k3 == key {
				t.Fatalf("trial %d: dropping a clause of %v kept the key", trial, f)
			}
		}
	}
}

// TestDedupForcedCollisions drives the hashed dedup with ONE hash for
// every clause: distinct clauses must all survive, duplicates must still
// go, first occurrences in input order.
func TestDedupForcedCollisions(t *testing.T) {
	b := func(v, alt int) vars.Binding { return vars.Binding{Var: vars.Var(v), Alt: int32(alt)} }
	x := vars.MustAssignment(b(0, 0))
	y := vars.MustAssignment(b(0, 1))
	xy := vars.MustAssignment(b(0, 0), b(1, 0))
	f := F{x, y, x, xy, y, vars.MustAssignment(b(1, 0), b(0, 0)), x}
	hashes := make([]uint64, len(f))
	for i := range hashes {
		hashes[i] = 7
	}
	got, key := f.dedupHashed(hashes)
	if want := (F{x, y, xy}); !sameClauses(got, want) {
		t.Fatalf("dedup under one forced hash = %v, want %v", got, want)
	}
	if _, k2 := (F{x, y, xy}).dedupHashed([]uint64{7, 7, 7}); k2 != key {
		t.Error("the set fingerprint must count each surviving clause once")
	}
}
