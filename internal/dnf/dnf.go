// Package dnf computes the exact confidence of a tuple represented in a
// U-relational database: the probability that at least one of a set F of
// partial assignments ("clauses") is extended by the random world,
//
//	p = Σ_{f*: ∃f∈F, f* ∈ ω(f)} p_{f*},
//
// as defined at the start of Section 4 of the paper. Exact confidence is
// #P-complete (Theorem 3.4); this package provides an exact solver used as
// ground truth for the Karp–Luby FPRAS and for small query evaluation:
//
//   - independent-component factoring: clauses are partitioned into
//     connected components by shared variables; components are disjoint in
//     variables, hence independent, so p = 1 − Π(1 − p_component);
//   - within a component, memoized Shannon expansion on variables; a
//     single clause is read-once and costs one product (Eq. 2);
//   - a brute-force world-enumeration evaluator and an inclusion–exclusion
//     evaluator used for cross-checks in tests.
package dnf

import (
	"slices"
	"sort"

	"repro/internal/rel"
	"repro/internal/vars"
)

// F is a disjunction of partial assignments (the clause set of one tuple).
// The order of clauses matters only to the Karp–Luby estimator's
// smallest-index rule; confidence is order-independent.
type F []vars.Assignment

// Clone returns a deep copy.
func (f F) Clone() F {
	out := make(F, len(f))
	for i, a := range f {
		out[i] = a.Clone()
	}
	return out
}

// TotalWeight returns M = Σ_f p_f, the normalization constant of the
// Karp–Luby estimator.
func (f F) TotalWeight(t *vars.Table) float64 {
	m := 0.0
	for _, a := range f {
		m += a.Weight(t)
	}
	return m
}

// Vars returns the sorted distinct variables mentioned by any clause.
func (f F) Vars() []vars.Var {
	var vs []vars.Var
	for _, a := range f {
		vs = a.Vars(vs)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || vs[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// Dedup removes duplicate clauses and clauses subsumed by the empty
// assignment: if any clause is empty the whole disjunction is certain.
// The first occurrence of a clause survives, in input order.
func (f F) Dedup() F {
	out, _ := f.dedup()
	return out
}

// setKey is the 128-bit commutative fingerprint of a deduplicated clause
// set — two sums over mixed 64-bit clause hashes, the standard core's
// content keys set — so equal sets key equally however their clauses are
// ordered. It is the Shannon memo's key.
type setKey struct{ hi, lo uint64 }

// dedup is Dedup, returning the surviving set's fingerprint as well: both
// come out of one hashing pass.
func (f F) dedup() (F, setKey) {
	hashes := make([]uint64, len(f))
	for i, a := range f {
		if len(a) == 0 {
			return F{vars.Assignment{}}, setKey{}
		}
		hashes[i] = a.Hash()
	}
	return f.dedupHashed(hashes)
}

// dedupHashed deduplicates non-empty clauses under their precomputed
// hashes: clause i is dropped when an equal clause precedes it on its hash
// chain.
func (f F) dedupHashed(hashes []uint64) (F, setKey) {
	ix := rel.BuildIndex(hashes)
	out := make(F, 0, len(f))
	var key setKey
clauses:
	for i, a := range f {
		for p := ix.First(hashes[i]); int(p) < i; p = ix.Next(p) {
			if f[p].Equal(a) {
				continue clauses
			}
		}
		out = append(out, a)
		key.hi += rel.Mix64(hashes[i])
		key.lo += rel.Mix64(^hashes[i])
	}
	return out, key
}

// Confidence computes the exact probability that a random world extends at
// least one clause of f, using component factoring plus memoized Shannon
// expansion.
func Confidence(f F, t *vars.Table) float64 {
	if len(f) > 1 {
		f = f.Dedup()
	}
	switch {
	case len(f) == 0:
		return 0
	case len(f[0]) == 0:
		return 1
	case len(f) == 1:
		// One clause is its own component; the wrapper keeps the bits the
		// component loop below would produce.
		return 1 - (1 - readOnce(f[0], t))
	case Certain(f, t):
		// Exactly 1, where the expansion's sum may round either way.
		return 1
	}
	comps := components(f)
	p := 1.0
	for _, comp := range comps {
		pc := shannon(comp, t, make(map[setKey]float64))
		p *= 1 - pc
	}
	return 1 - p
}

// Exclusive reports whether no world extends two clauses of a deduplicated
// set of non-empty clauses because one variable occurs in every clause,
// bound to a different alternative in each — the exclusive-or node of
// Olteanu, Huang and Koch's d-trees (ICDE 2010), and the lineage a tuple
// ranging over one repair-key group's alternatives has. Then p = Σ_f p_f,
// so every Karp–Luby trial is a hit and sampling only recomputes that sum.
// A single clause is the |F| = 1 case. The check is one pass over the
// literals per variable of the first clause, and allocates nothing.
func Exclusive(f F) bool {
	if len(f) == 1 {
		return true
	}
	for _, b := range f[0] {
		if exclusiveOn(f, b.Var) {
			return true
		}
	}
	return false
}

// exclusiveBits is how many alternatives exclusiveOn tracks in its bitset;
// an alternative past it is compared with the earlier clauses' instead.
const exclusiveBits = 1024

// exclusiveOn reports whether x occurs in every clause of f, bound to a
// different alternative in each.
func exclusiveOn(f F, x vars.Var) bool {
	var seen [exclusiveBits / 64]uint64
	for i, a := range f {
		alt, ok := a.Get(x)
		if !ok {
			return false
		}
		if alt < exclusiveBits {
			w, bit := alt/64, uint64(1)<<(alt%64)
			if seen[w]&bit != 0 {
				return false
			}
			seen[w] |= bit
			continue
		}
		for _, b := range f[:i] {
			if other, _ := b.Get(x); other == alt {
				return false
			}
		}
	}
	return true
}

// components partitions the clause set into connected components under the
// "shares a variable" relation, via union-find over clause indices.
func components(f F) []F {
	parent := make([]int, len(f))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(i, j int) { parent[find(i)] = find(j) }

	owner := make(map[vars.Var]int)
	for i, a := range f {
		for _, b := range a {
			if j, ok := owner[b.Var]; ok {
				union(i, j)
			} else {
				owner[b.Var] = i
			}
		}
	}
	groups := make(map[int]F)
	for i, a := range f {
		r := find(i)
		groups[r] = append(groups[r], a)
	}
	// Deterministic order for reproducibility.
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([]F, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// shannon computes the probability of the disjunction by expanding on the
// most frequent variable: p(F) = Σ_alt Pr[X=alt] · p(F | X=alt). Results
// are memoized on the fingerprint of the residual clause set.
func shannon(f F, t *vars.Table, memo map[setKey]float64) float64 {
	// Normal form: drop duplicates; detect certainty; a lone clause is
	// read-once.
	var key setKey
	if len(f) > 1 {
		f, key = f.dedup()
	}
	switch {
	case len(f) == 0:
		return 0
	case len(f[0]) == 0:
		return 1
	case len(f) == 1:
		return readOnce(f[0], t)
	}
	if p, ok := memo[key]; ok {
		return p
	}
	x := pickVar(f)
	conds, rest := conditionAll(f, x, t.DomSize(x))
	p, pRest, restDone := 0.0, 0.0, false
	for alt, cond := range conds {
		var pc float64
		if cond != nil {
			pc = shannon(cond, t, memo)
		} else {
			// F | X=alt is the rest: the same set, hence the same bits, for
			// every such alt.
			if !restDone {
				pRest, restDone = shannon(rest, t, memo), true
			}
			pc = pRest
		}
		p += t.Prob(x, alt) * pc
	}
	memo[key] = p
	return p
}

// conditionAll returns F | X=alt for every alternative alt < d of x: the
// clauses binding x to alt, x removed, and the rest — the clauses free of
// x — in their order in f. conds[alt] is nil when no clause binds x to alt;
// F | X=alt is then rest itself. All the sets come out of one pass over f
// and four allocations, so a variable with many alternatives costs
// O(d + |F| + k·|rest|) for its k bound alternatives, not O(d·|F|).
func conditionAll(f F, x vars.Var, d int) (conds []F, rest F) {
	// cnt[alt] counts the clauses binding x to alt; where[i] is clause i's
	// alternative, or -1; bound lists the alternatives some clause binds.
	ints := make([]int32, d+len(f)+min(d, len(f)))
	cnt, where, bound := ints[:d], ints[d:d+len(f)], ints[d+len(f):d+len(f)]
	nRest, nLit := 0, 0
	for i, a := range f {
		alt, ok := a.Get(x)
		if !ok {
			where[i] = -1
			nRest++
			continue
		}
		where[i] = alt
		if cnt[alt] == 0 {
			bound = append(bound, alt)
		}
		cnt[alt]++
		nLit += len(a) - 1
	}
	// One backing array: rest, then each bound alternative's clauses and
	// the rest.
	backing := make(F, len(f)+len(bound)*nRest)
	rest, backing = backing[:0:nRest], backing[nRest:]
	conds = make([]F, d)
	for _, alt := range bound {
		n := int(cnt[alt]) + nRest
		conds[alt], backing = backing[:0:n], backing[n:]
	}
	lits := make(vars.Assignment, nLit)
	for i, a := range f {
		alt := where[i]
		if alt < 0 {
			rest = append(rest, a)
			for _, b := range bound {
				conds[b] = append(conds[b], a)
			}
			continue
		}
		// a without x, carved from lits.
		j := 0
		for a[j].Var != x {
			j++
		}
		w := append(append(lits[:0:len(a)-1], a[:j]...), a[j+1:]...)
		lits = lits[len(a)-1:]
		conds[alt] = append(conds[alt], w)
	}
	return conds, rest
}

// readOnce is the confidence of one non-empty clause, p_f = Π Pr[X = f(X)]
// (Eq. 2), without a memo or a variable pick. Expanding the clause on its
// variables in order yields Pr[x₁]·(Pr[x₂]·(…·Pr[x_k])), so the product
// is taken right to left: the bits equal the expansion's.
func readOnce(a vars.Assignment, t *vars.Table) float64 {
	p := 1.0
	for i := len(a) - 1; i >= 0; i-- {
		p = t.Prob(a[i].Var, int(a[i].Alt)) * p
	}
	return p
}

// pickVar chooses the variable occurring in the most clauses, which keeps
// the residual clause sets small; of those, the lowest. It counts runs in
// one sorted list of f's variables.
func pickVar(f F) vars.Var {
	n := 0
	for _, a := range f {
		n += len(a)
	}
	all := make([]vars.Var, 0, n)
	for _, a := range f {
		for _, b := range a {
			all = append(all, b.Var)
		}
	}
	slices.Sort(all)
	best, bestN := vars.Var(-1), 0
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j] == all[i] {
			j++
		}
		if j-i > bestN {
			best, bestN = all[i], j-i
		}
		i = j
	}
	return best
}

// ConfidenceByEnumeration computes the confidence by enumerating every
// world of the table and summing the weights of worlds extending some
// clause. Exponential in the number of variables; used for cross-checks.
func ConfidenceByEnumeration(f F, t *vars.Table) float64 {
	f = f.Dedup()
	if len(f) == 0 {
		return 0
	}
	p := 0.0
	vars.EnumWorlds(t, 1<<22, func(w vars.World, weight float64) {
		for _, a := range f {
			if w.Satisfies(a) {
				p += weight
				return
			}
		}
	})
	return p
}
