package dnf

import (
	"repro/internal/vars"
)

// Lineage factoring pre-pass for approximate confidence.
//
// components() already proves that clauses in different connected
// components (under the shares-a-variable relation) are independent, so
// p = 1 − Π(1−p_c). The exact solver exploits that to shrink Shannon
// expansions; Factor exploits it to shrink *sampling*: components that
// are cheap to compute exactly — single clauses (read-once by
// construction) and small components — are folded into one exact
// probability, and only the genuinely hard residue is handed to the
// Karp–Luby estimator.
//
// Correctness of the split: with E the exact part's probability and p_R
// the residue's, p = 1 − (1−E)(1−p_R) = E + (1−E)·p_R. An estimate
// p̂_R with |p̂_R − p_R| ≤ ε·p_R yields
//
//	|p̂ − p| = (1−E)·|p̂_R − p_R| ≤ (1−E)·ε·p_R ≤ ε·p,
//
// since p ≥ (1−E)·p_R — the relative (ε,δ) guarantee on the residue
// carries to the combined estimate unchanged (and likewise for additive
// widths, which can only shrink by the factor 1−E).

// FactorLimits bounds the exact side of Factor: a component is computed
// exactly when it is a single clause, or when it has at most MaxClauses
// clauses and mentions at most MaxVars variables (keeping the Shannon
// expansion trivially cheap). Larger components join the residue.
type FactorLimits struct {
	MaxClauses int
	MaxVars    int
}

// DefaultFactorLimits is the engine's factoring policy: exact Shannon
// expansion is at worst ~2^MaxVars work per component, negligible next to
// a single sampling chunk.
var DefaultFactorLimits = FactorLimits{MaxClauses: 8, MaxVars: 16}

// Factored is the result of the factoring pre-pass.
type Factored struct {
	// Exact is the probability that at least one exactly-computed
	// component fires: 1 − Π(1−p_c) over the easy components.
	Exact float64
	// ExactComponents counts the components folded into Exact.
	ExactComponents int
	// Residue is the concatenation of the hard components (in the
	// deterministic component order), empty when everything was easy. Its
	// confidence p_R combines with Exact as p = Exact + (1−Exact)·p_R.
	Residue F
}

// Factor splits f into an exactly-computed part and a sampling residue.
// f should already be deduplicated; empty and tautological clause sets
// are handled as exact values. Because components() orders components
// deterministically, the residue's clause order — and hence everything
// derived from it downstream (canonical fingerprints, stratification
// plans, PRNG streams) — is a pure function of the input clause set.
func Factor(f F, t *vars.Table, lim FactorLimits) Factored {
	if len(f) == 0 {
		return Factored{}
	}
	if len(f[0]) == 0 {
		return Factored{Exact: 1, ExactComponents: 1}
	}
	comps := components(f)
	if len(comps) == 1 && !easyComponent(comps[0], lim) {
		// Fast path: one hard component — the residue is f itself.
		return Factored{Residue: f}
	}
	missAll := 1.0 // Π(1−p_c) over easy components
	out := Factored{}
	for _, comp := range comps {
		if !easyComponent(comp, lim) {
			out.Residue = append(out.Residue, comp...)
			continue
		}
		var pc float64
		if len(comp) == 1 {
			pc = readOnce(comp[0], t)
		} else {
			pc = shannon(comp, t, make(map[setKey]float64))
		}
		missAll *= 1 - pc
		out.ExactComponents++
	}
	out.Exact = 1 - missAll
	return out
}

// easyComponent reports whether a connected component is cheap enough for
// exact computation under the limits.
func easyComponent(comp F, lim FactorLimits) bool {
	if len(comp) == 1 {
		return true
	}
	if len(comp) > lim.MaxClauses {
		return false
	}
	return len(comp.Vars()) <= lim.MaxVars
}
