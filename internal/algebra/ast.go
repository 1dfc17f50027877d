// Package algebra defines the query AST for the paper's uncertainty
// algebra UA[conf, repair-key, σ̂] (Definitions 2.1 and 6.2/Section 6) and
// two evaluators: an exact one over the nonsuccinct possible-worlds model
// (the reference semantics of Section 2) and the plan walker over
// U-relational databases (the parsimonious translation of Section 3).
// The walker is exact by default; internal/core turns it into the
// approximate evaluator of Theorem 6.7 by supplying sampling Estimators.
package algebra

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/predapprox"
)

// Query is a node of a UA query plan.
type Query interface {
	String() string
	// Children returns the sub-queries, for plan traversal.
	Children() []Query
}

// Base references a named database relation.
type Base struct{ Name string }

// Select is the world-wise selection σ_φ.
type Select struct {
	In   Query
	Pred expr.Pred
}

// Project is the generalized projection/renaming π/ρ with arithmetic
// targets (the paper allows arithmetic in the arguments of π and ρ).
type Project struct {
	In      Query
	Targets []expr.Target
}

// Product is the world-wise cross product ×; attribute names must be
// disjoint.
type Product struct{ L, R Query }

// Join is the world-wise natural join ⋈.
type Join struct{ L, R Query }

// Union is the world-wise union ∪; schemas must match.
type Union struct{ L, R Query }

// DiffC is −c: difference applied to relations that are complete by c.
type DiffC struct{ L, R Query }

// RepairKey is repair-key_Key@Weight, the uncertainty-introducing
// operation.
type RepairKey struct {
	In     Query
	Key    []string
	Weight string
}

// Conf is the confidence operation; its output is a complete relation with
// the extra column As (default "P").
type Conf struct {
	In Query
	As string
}

// PCol returns the conf column name.
func (c Conf) PCol() string {
	if c.As == "" {
		return "P"
	}
	return c.As
}

// Poss computes the possible tuples: π_sch(R)(conf(R)).
type Poss struct{ In Query }

// Cert computes the certain tuples: π_sch(R)(σ_{P=1}(conf(R))).
type Cert struct{ In Query }

// ConfArg is one conf[Ā] term of an approximate selection: the confidence
// of the input projected onto Attrs. An empty Attrs list is conf[∅], the
// probability that the input is nonempty.
type ConfArg struct{ Attrs []string }

// ApproxSelect is the σ̂ operator of Section 6:
//
//	σ̂_{φ(conf[Ā₁],…,conf[Ā_k])}(R) :=
//	  σ_{φ(P1,…,Pk)}(ρ_{P→P1}(conf(π_{Ā₁}(R))) ⋈ … ⋈ ρ_{P→Pk}(conf(π_{Ā_k}(R))))
//
// Its output schema is the union of the Āᵢ (in order of first appearance)
// followed by the confidence columns P1,…,Pk; it is complete but, under
// approximate evaluation, unreliable.
type ApproxSelect struct {
	In   Query
	Args []ConfArg
	Pred predapprox.Pred
}

// Let binds the result of Def to Name for the evaluation of In, so that a
// subquery with uncertainty-introducing operations (repair-key) is
// evaluated once and shared — the "R := …; S := …" style of the paper's
// Example 2.2. Without Let, each occurrence of a subtree is an independent
// evaluation with fresh random variables.
type Let struct {
	Name string
	Def  Query
	In   Query
}

// Children implementations.

// Children returns no children.
func (Base) Children() []Query { return nil }

// Children returns the input.
func (q Select) Children() []Query { return []Query{q.In} }

// Children returns the input.
func (q Project) Children() []Query { return []Query{q.In} }

// Children returns both inputs.
func (q Product) Children() []Query { return []Query{q.L, q.R} }

// Children returns both inputs.
func (q Join) Children() []Query { return []Query{q.L, q.R} }

// Children returns both inputs.
func (q Union) Children() []Query { return []Query{q.L, q.R} }

// Children returns both inputs.
func (q DiffC) Children() []Query { return []Query{q.L, q.R} }

// Children returns the input.
func (q RepairKey) Children() []Query { return []Query{q.In} }

// Children returns the input.
func (q Conf) Children() []Query { return []Query{q.In} }

// Children returns the input.
func (q Poss) Children() []Query { return []Query{q.In} }

// Children returns the input.
func (q Cert) Children() []Query { return []Query{q.In} }

// Children returns the input.
func (q ApproxSelect) Children() []Query { return []Query{q.In} }

// Children returns the definition and the body.
func (q Let) Children() []Query { return []Query{q.Def, q.In} }

// String renderings.

func (q Base) String() string   { return q.Name }
func (q Select) String() string { return fmt.Sprintf("σ[%s](%s)", q.Pred, q.In) }

func (q Project) String() string {
	parts := make([]string, len(q.Targets))
	for i, t := range q.Targets {
		if a, ok := t.Expr.(expr.Attr); ok && a.Name == t.As {
			parts[i] = t.As
		} else {
			parts[i] = fmt.Sprintf("%s→%s", t.Expr, t.As)
		}
	}
	return fmt.Sprintf("π[%s](%s)", strings.Join(parts, ","), q.In)
}

func (q Product) String() string { return fmt.Sprintf("(%s × %s)", q.L, q.R) }
func (q Join) String() string    { return fmt.Sprintf("(%s ⋈ %s)", q.L, q.R) }
func (q Union) String() string   { return fmt.Sprintf("(%s ∪ %s)", q.L, q.R) }
func (q DiffC) String() string   { return fmt.Sprintf("(%s −c %s)", q.L, q.R) }

func (q RepairKey) String() string {
	return fmt.Sprintf("repair-key[%s@%s](%s)", strings.Join(q.Key, ","), q.Weight, q.In)
}

func (q Conf) String() string { return fmt.Sprintf("conf→%s(%s)", q.PCol(), q.In) }
func (q Poss) String() string { return fmt.Sprintf("poss(%s)", q.In) }
func (q Cert) String() string { return fmt.Sprintf("cert(%s)", q.In) }

func (q Let) String() string { return fmt.Sprintf("let %s := %s in %s", q.Name, q.Def, q.In) }

func (q ApproxSelect) String() string {
	args := make([]string, len(q.Args))
	for i, a := range q.Args {
		args[i] = "conf[" + strings.Join(a.Attrs, ",") + "]"
	}
	return fmt.Sprintf("σ̂[%s over %s](%s)", q.Pred, strings.Join(args, ","), q.In)
}

// Walk visits q and all descendants in preorder.
func Walk(q Query, fn func(Query)) {
	fn(q)
	for _, c := range q.Children() {
		Walk(c, fn)
	}
}
