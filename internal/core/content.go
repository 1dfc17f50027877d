package core

import (
	"math"
	"sort"

	"repro/internal/dnf"
	"repro/internal/rel"
	"repro/internal/vars"
)

// Lineage-content task keys.
//
// A task's key fingerprints what the estimator actually depends on — the
// clause set itself — not where in which plan it was met. Two tasks with
// the same canonical clause set have the same true confidence, the same
// clause count (hence chunk plan), the same total weight M, and — once the
// clause order is canonicalized and the PRNG streams are derived from the
// fingerprint — bit-identical estimates under one engine seed. That makes
// cached state reusable across operators, across Eval calls, and across
// *different* queries that share lineage.
//
// Variable identity. Clause fingerprints cannot use raw variable ids:
// repair-key registers fresh variables per evaluation, so the same id can
// name different variables in different queries. Each variable is instead
// fingerprinted by its identity (vars.Info.ID) plus the probability
// vector. Identities are deterministic per (database, program):
// base-table variables mix their relation name and row, and repair-key
// variables mix the evaluation-order "rkN" prefix with the group's typed
// key hash, so the repeated-query case always keys identically. Across
// *different* programs, sharing reaches as far as the identities do:
// base-table lineage and repair-keys at the same plan position share; a
// repair-key at a different rkN position gets a different identity, which
// costs the reuse — a cache miss — but never correctness. Identities are
// unique within a table, so one clause set never conflates two variables.
//
// Canonical clause order. The Karp–Luby estimator is order-sensitive
// (cumulative weights and the smallest-index rule), so content-equal tasks
// must feed the estimator the same clause order to sample identical
// streams. canonicalF sorts clauses by their (order-independent)
// fingerprints; binding order within a clause never matters because
// clause fingerprints combine bindings commutatively.

// contentKey is the 128-bit canonical fingerprint of a clause set — the
// estimator cache key and the root of the task's PRNG seed derivation.
type contentKey struct{ hi, lo uint64 }

// fingerprinter computes content fingerprints against one variable table,
// memoizing per-variable identity hashes. It is not safe for concurrent
// use; each evaluation owns one (plan construction is sequential).
type fingerprinter struct {
	table *vars.Table
	varFP map[vars.Var]uint64
}

func newFingerprinter(table *vars.Table) *fingerprinter {
	return &fingerprinter{table: table, varFP: make(map[vars.Var]uint64)}
}

// varID fingerprints one random variable by identity and distribution.
func (fp *fingerprinter) varID(v vars.Var) uint64 {
	if id, ok := fp.varFP[v]; ok {
		return id
	}
	in := fp.table.Info(v)
	h := rel.HashCombine(rel.HashSeed, in.ID)
	for _, p := range in.Probs {
		h = rel.HashCombine(h, math.Float64bits(p))
	}
	fp.varFP[v] = h
	return h
}

// clauseFP fingerprints one clause. Bindings combine commutatively (summed
// mixes), so the fingerprint does not depend on variable-id order — which
// is not content-stable across queries when repair-key assigned the ids.
func (fp *fingerprinter) clauseFP(a vars.Assignment) uint64 {
	h := uint64(len(a))
	for _, b := range a {
		h += rel.Mix64(fp.varID(b.Var) ^ rel.Mix64(uint64(uint32(b.Alt))+0x9e3779b97f4a7c15))
	}
	return rel.Mix64(h)
}

// canonicalF sorts the (deduplicated) clause set into canonical content
// order and returns its 128-bit fingerprint. The sort key is each clause's
// content fingerprint, so content-equal sets arrive at the same order no
// matter how their clauses were enumerated; the fingerprint then folds the
// sorted clause hashes under two different seeds.
func (fp *fingerprinter) canonicalF(f dnf.F) (dnf.F, contentKey) {
	fps := make([]uint64, len(f))
	for i, a := range f {
		fps[i] = fp.clauseFP(a)
	}
	sort.Sort(&clausesByFP{f: f, fps: fps})
	hi := rel.HashCombine(rel.HashSeed, uint64(len(f)))
	lo := rel.HashCombine(rel.HashSeed, ^uint64(len(f)))
	for _, h := range fps {
		hi = rel.HashCombine(hi, h)
		lo = rel.HashCombine(lo, rel.Mix64(h))
	}
	return f, contentKey{hi: hi, lo: lo}
}

// clausesByFP sorts a clause set and its fingerprints in lock-step.
type clausesByFP struct {
	f   dnf.F
	fps []uint64
}

func (s *clausesByFP) Len() int           { return len(s.f) }
func (s *clausesByFP) Less(i, j int) bool { return s.fps[i] < s.fps[j] }
func (s *clausesByFP) Swap(i, j int) {
	s.f[i], s.f[j] = s.f[j], s.f[i]
	s.fps[i], s.fps[j] = s.fps[j], s.fps[i]
}
