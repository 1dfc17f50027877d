package dnf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vars"
)

// readOnceTable registers n variables with 2–4 alternatives each.
func readOnceTable(rng *rand.Rand, n int) *vars.Table {
	t := vars.NewTable()
	for i := 0; i < n; i++ {
		probs := make([]float64, 2+rng.Intn(3))
		sum := 0.0
		for j := range probs {
			probs[j] = 0.05 + rng.Float64()
			sum += probs[j]
		}
		for j := range probs {
			probs[j] /= sum
		}
		t.Add(varName(i), probs, nil)
	}
	return t
}

// readOnceClause binds the given variables to random alternatives.
func readOnceClause(rng *rand.Rand, t *vars.Table, vs []int) vars.Assignment {
	bs := make([]vars.Binding, len(vs))
	for i, v := range vs {
		bs[i] = vars.Binding{Var: vars.Var(v), Alt: int32(rng.Intn(t.DomSize(vars.Var(v))))}
	}
	return vars.MustAssignment(bs...)
}

// readOnceF draws one of three shapes: a single clause; several clauses
// over disjoint variables (each its own single-clause component, some
// repeated); or 1–6 clauses over shared variables, whose conditioned
// residues reach single clauses inside the expansion.
func readOnceF(rng *rand.Rand, t *vars.Table) (F, string) {
	n := t.Len()
	perm := rng.Perm(n)
	switch rng.Intn(3) {
	case 0:
		return F{readOnceClause(rng, t, perm[:1+rng.Intn(n)])}, "single"
	case 1:
		var f F
		for len(perm) > 0 && len(f) < 6 {
			k := 1 + rng.Intn(len(perm))
			f = append(f, readOnceClause(rng, t, perm[:k]))
			perm = perm[k:]
		}
		if rng.Intn(3) == 0 {
			f = append(f, f[rng.Intn(len(f))])
		}
		return f, "disjoint"
	default:
		f := make(F, 1+rng.Intn(6))
		for i := range f {
			vs := rng.Perm(n)
			f[i] = readOnceClause(rng, t, vs[:1+rng.Intn(n)])
		}
		return f, "shared"
	}
}

// TestConfidenceReadOnceBitIdentical: over 20 000 seeded clause sets,
// Confidence, ConfidenceNoFactoring and Factor equal the reference
// expansion (reference_test.go), which expands every clause set, a lone
// clause included, exactly — Confidence's under its certainty rule. The
// read-once product must be taken in the expansion's association, not
// Assignment.Weight's.
func TestConfidenceReadOnceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	shapes := map[string]int{}
	disjointComps := 0
	for trial := 0; trial < 20000; trial++ {
		tab := readOnceTable(rng, 1+rng.Intn(10))
		f, shape := readOnceF(rng, tab)
		shapes[shape]++
		if shape == "disjoint" && len(components(f.Dedup())) > 1 {
			disjointComps++
		}
		if g, w := Confidence(f, tab), refCertainConfidence(f, tab); g != w {
			t.Fatalf("trial %d (%s): Confidence(%v) = %v, reference %v", trial, shape, f, g, w)
		}
		if g, w := ConfidenceNoFactoring(f, tab), refShannon(f, tab, map[string]float64{}); g != w {
			t.Fatalf("trial %d (%s): ConfidenceNoFactoring(%v) = %v, reference %v", trial, shape, f, g, w)
		}
		d := f.Dedup()
		g, w := Factor(d, tab, FactorLimits{MaxClauses: 3, MaxVars: 6}), refFactor(d, tab, FactorLimits{MaxClauses: 3, MaxVars: 6})
		if g.Exact != w.Exact || g.ExactComponents != w.ExactComponents || !sameClauses(g.Residue, w.Residue) {
			t.Fatalf("trial %d (%s): Factor(%v) = %+v, reference %+v", trial, shape, d, g, w)
		}
	}
	if shapes["single"] < 5000 || disjointComps < 3000 || shapes["shared"] < 5000 {
		t.Errorf("generator too tame: %v, %d sets of several single-clause components", shapes, disjointComps)
	}
}

// refCertainConfidence is the reference under Confidence's certainty
// rule: a set of several clauses Certain proves is exactly 1, where the
// reference sum is only within rounding of 1.
func refCertainConfidence(f F, t *vars.Table) float64 {
	p := refConfidence(f, t)
	if d := f.Dedup(); len(d) > 1 && Certain(d, t) {
		if math.Abs(p-1) > 1e-12 {
			panic(fmt.Sprintf("Certain proved %v, whose reference confidence is %v", d, p))
		}
		return 1
	}
	return p
}

// TestFactorSingleClauseMatchesConfidence: a lone clause's weight is the
// same read-once product in Factor as in Confidence, so a fully factored
// lineage and its exact conf agree bit for bit.
func TestFactorSingleClauseMatchesConfidence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 2000; trial++ {
		tab := readOnceTable(rng, 10)
		f := F{readOnceClause(rng, tab, rng.Perm(10)[:3+rng.Intn(8)])}
		if g, w := Factor(f, tab, DefaultFactorLimits).Exact, Confidence(f, tab); g != w {
			t.Fatalf("trial %d: Factor(%v).Exact = %v, Confidence %v", trial, f, g, w)
		}
	}
}
