package algebra

import (
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/urel"
)

// This file implements the query rewriting of Theorem 4.4: confidences of
// conjunctions φ ∧ ψ where ψ is a (generalized) equality-generating
// dependency are expressible in positive UA[conf] as
//
//	Pr[φ ∧ ψ] = Pr[φ] − Pr[φ ∧ ¬ψ],
//
// because ¬ψ is existential. The rewriting is the paper's
//
//	ρ_{P1−P2→P}(ρ_{P→P1}(conf(φ)) ⋈ ρ_{P→P2}(conf(φ ∧ ¬ψ))),
//
// generalized to grouped confidences: the two conf relations join
// naturally on the group attributes.

// ConfMinus builds the positive-UA expression for Pr[φ] − Pr[φ∧¬ψ] per
// group: conf(φ) and conf(φ∧¬ψ) are joined on their shared attributes and
// the probability difference is exposed as column pcol. Groups of φ with
// no matching φ∧¬ψ tuple would be dropped by the join, so callers must
// ensure negWitness covers all groups (use EnsureCovered) or accept inner
// join semantics.
func ConfMinus(phi, phiAndNotPsi Query, pcol string) Query {
	confPhi := Conf{In: phi, As: "_P1"}
	confNeg := Conf{In: phiAndNotPsi, As: "_P2"}
	return Project{
		In: Join{L: confPhi, R: confNeg},
		Targets: []expr.Target{
			// Keep the group attributes implicitly via the join schema:
			// the caller projects afterwards; here we compute only P.
			As(pcol, expr.Sub(expr.A("_P1"), expr.A("_P2"))),
		},
	}
}

// ConfMinusGrouped is ConfMinus keeping the named group attributes in the
// output alongside the difference column.
func ConfMinusGrouped(phi, phiAndNotPsi Query, group []string, pcol string) Query {
	confPhi := Conf{In: phi, As: "_P1"}
	confNeg := Conf{In: phiAndNotPsi, As: "_P2"}
	targets := make([]expr.Target, 0, len(group)+1)
	for _, g := range group {
		targets = append(targets, expr.Keep(g))
	}
	targets = append(targets, As(pcol, expr.Sub(expr.A("_P1"), expr.A("_P2"))))
	return Project{
		In:      Join{L: confPhi, R: confNeg},
		Targets: targets,
	}
}

// As is a small alias so rewrite code reads like the paper's ρ notation.
func As(name string, e expr.Expr) expr.Target { return expr.As(name, e) }

// EGDViolation builds the existential query φ ∧ ¬ψ for the functional
// dependency ψ: ∀ key is unique in rel — its negation is the existential
// "two tuples agree on Key but differ on some attribute of Differ". The
// result has schema group (projected from the left copy), so it can feed
// ConfMinusGrouped. rel must be the name of a base relation; copies are
// renamed apart internally.
//
// This is the workhorse for conditional probabilities of the form
// Pr[φ | no key violation], the paper's motivating case for Theorem 4.4.
func EGDViolation(relName string, key []string, differ []string, group []string) Query {
	// Left copy keeps original names; right copy is renamed with suffix.
	rightTargets := make([]expr.Target, 0, len(key)+len(differ))
	for _, k := range key {
		rightTargets = append(rightTargets, expr.As(k+"_r", expr.A(k)))
	}
	for _, d := range differ {
		rightTargets = append(rightTargets, expr.As(d+"_r", expr.A(d)))
	}
	right := Project{In: Base{Name: relName}, Targets: rightTargets}

	// Join condition: keys equal, some differ attribute different.
	var keyEq []expr.Pred
	for _, k := range key {
		keyEq = append(keyEq, expr.Eq(expr.A(k), expr.A(k+"_r")))
	}
	var anyDiff []expr.Pred
	for _, d := range differ {
		anyDiff = append(anyDiff, expr.Ne(expr.A(d), expr.A(d+"_r")))
	}
	cond := expr.AndOf(append(keyEq, expr.OrOf(anyDiff...))...)

	prod := Product{L: Base{Name: relName}, R: right}
	sel := Select{In: prod, Pred: cond}
	targets := make([]expr.Target, len(group))
	for i, g := range group {
		targets[i] = expr.Keep(g)
	}
	return Project{In: sel, Targets: targets}
}

// ConjunctionWithEGD describes Pr[φ ∧ ψ] where φ is an existential
// (positive UA) query and ψ is the egd "no two tuples of relName agree on
// Key but differ on Differ" (a functional dependency). Theorem 4.4:
// Pr[φ ∧ ψ] = Pr[φ] − Pr[φ ∧ ¬ψ] with ¬ψ existential.
type ConjunctionWithEGD struct {
	// Phi is the existential part; its schema must contain Group.
	Phi Query
	// RelName, Key, Differ define the functional dependency ψ.
	RelName string
	Key     []string
	Differ  []string
	// Group is the grouping of the confidence computation (the schema of
	// the conf inputs).
	Group []string
}

// NegWitness returns the existential query φ ∧ ¬ψ: φ joined with the
// violation witness. The join correlates φ and ¬ψ through the shared
// random variables of the underlying probabilistic relations, which is
// exactly what the conjunction's probability requires.
func (c ConjunctionWithEGD) NegWitness() Query {
	violation := EGDViolation(c.RelName, c.Key, c.Differ, nil)
	// A zero-attribute violation witness joins as a semijoin filter (its
	// only effect is through the D columns). With group attributes it
	// joins naturally.
	return Join{L: c.Phi, R: violation}
}

// EvalConfConjunctionEGD computes the Theorem 4.4 difference exactly on
// the evaluator's database, with outer-difference semantics: groups of φ
// with no possible violation get Pr[φ ∧ ¬ψ] = 0, so their conjunction
// probability is Pr[φ]. The result is a complete relation with schema
// Group ∪ {pcol}.
func (e *URelEvaluator) EvalConfConjunctionEGD(c ConjunctionWithEGD, pcol string) (URelResult, error) {
	phiGrouped := Project{In: c.Phi, Targets: keepAll(c.Group)}
	confPhi, err := e.Eval(Conf{In: phiGrouped, As: pcol})
	if err != nil {
		return URelResult{}, err
	}
	negGrouped := Project{In: c.NegWitness(), Targets: keepAll(c.Group)}
	confNeg, err := e.Eval(Conf{In: negGrouped, As: pcol})
	if err != nil {
		return URelResult{}, err
	}
	// Outer difference on the group attributes: missing ¬ψ groups mean 0.
	// conf emits one row per group, so negGroups' positions are confNeg's.
	pIdx := confNeg.Rel.Schema().Index(pcol)
	negGroups := rel.NewRelation(confNeg.Rel.Schema()[:pIdx])
	for _, ut := range confNeg.Rel.Tuples() {
		negGroups.AddOwned(ut.Row[:pIdx])
	}
	result := cloneSchemaRelation(confPhi.Rel)
	pIdxPhi := confPhi.Rel.Schema().Index(pcol)
	for _, ut := range confPhi.Rel.Tuples() {
		row := ut.Row.Clone()
		p := row[pIdxPhi].AsFloat()
		if i := negGroups.Pos(row[:pIdxPhi]); i >= 0 {
			p -= confNeg.Rel.Tuples()[i].Row[pIdx].AsFloat()
		}
		if p < 0 {
			p = 0 // numeric guard; Pr[φ] ≥ Pr[φ∧¬ψ] always
		}
		row[pIdxPhi] = floatValue(p)
		result.Add(nil, row)
	}
	return URelResult{Rel: result, Complete: true}, nil
}

func keepAll(attrs []string) []expr.Target {
	out := make([]expr.Target, len(attrs))
	for i, a := range attrs {
		out[i] = expr.Keep(a)
	}
	return out
}

// cloneSchemaRelation returns an empty U-relation with r's schema.
func cloneSchemaRelation(r *urel.Relation) *urel.Relation {
	return urel.NewRelation(r.Schema())
}

func floatValue(f float64) rel.Value { return rel.Float(f) }
