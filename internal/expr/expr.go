// Package expr implements scalar expressions and selection predicates over
// tuples, as allowed by the paper's algebra: "Boolean combinations of
// atomic conditions ... and arithmetic expressions in atomic conditions
// and in the arguments of π and ρ" (Section 2).
//
// An Expr evaluates to a rel.Value against a (schema, tuple) pair; a Pred
// evaluates to a bool. A σ̂ predicate is a Pred too, over the attributes
// p1..pk: predapprox.FromExpr decides it and measures its margins on the
// same tree.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/rel"
)

// Env gives an expression access to the attributes of the tuple under
// evaluation.
type Env struct {
	Schema rel.Schema
	Tuple  rel.Tuple
}

// Lookup returns the value of attribute a, or NULL if absent.
func (e Env) Lookup(a string) rel.Value {
	if i := e.Schema.Index(a); i >= 0 {
		return e.Tuple[i]
	}
	return rel.Null()
}

// Expr is a scalar expression.
type Expr interface {
	Eval(env Env) rel.Value
	String() string
	// Attrs appends the attribute names the expression mentions.
	Attrs(dst []string) []string
}

// Const is a literal value.
type Const struct{ V rel.Value }

// Eval returns the literal.
func (c Const) Eval(Env) rel.Value { return c.V }

func (c Const) String() string {
	if c.V.Kind() == rel.StringKind {
		return fmt.Sprintf("%q", c.V.AsString())
	}
	return c.V.String()
}

// Attrs returns dst unchanged: constants mention no attributes.
func (c Const) Attrs(dst []string) []string { return dst }

// Attr references a named attribute of the input tuple.
type Attr struct{ Name string }

// Eval returns the attribute's value.
func (a Attr) Eval(env Env) rel.Value { return env.Lookup(a.Name) }

func (a Attr) String() string { return a.Name }

// Attrs appends the attribute name.
func (a Attr) Attrs(dst []string) []string { return append(dst, a.Name) }

// col is an attribute bound to its position in a schema (Bind): Eval reads
// the tuple at i without looking the name up. i < 0 marks an attribute the
// schema lacks, which reads NULL, as an unbound Attr does.
type col struct {
	name string
	i    int
}

// Eval returns the value at the bound position.
func (c col) Eval(env Env) rel.Value {
	if c.i < 0 {
		return rel.Null()
	}
	return env.Tuple[c.i]
}

func (c col) String() string { return c.name }

// Attrs appends the attribute name.
func (c col) Attrs(dst []string) []string { return append(dst, c.name) }

// Bind returns e with every attribute resolved against schema to its
// position, so that evaluating it over tuples of schema scans no names.
// Operators bind once per call; an expression type this package does not
// define is kept as it is.
func Bind(e Expr, schema rel.Schema) Expr {
	switch e := e.(type) {
	case Attr:
		return col{name: e.Name, i: schema.Index(e.Name)}
	case Arith:
		return Arith{Op: e.Op, L: Bind(e.L, schema), R: Bind(e.R, schema)}
	default:
		return e
	}
}

// BindPred is Bind for a predicate.
func BindPred(p Pred, schema rel.Schema) Pred {
	switch p := p.(type) {
	case Cmp:
		return Cmp{Op: p.Op, L: Bind(p.L, schema), R: Bind(p.R, schema)}
	case And:
		return And{Kids: bindPreds(p.Kids, schema)}
	case Or:
		return Or{Kids: bindPreds(p.Kids, schema)}
	case Not:
		return Not{Kid: BindPred(p.Kid, schema)}
	default:
		return p
	}
}

func bindPreds(ps []Pred, schema rel.Schema) []Pred {
	out := make([]Pred, len(ps))
	for i, p := range ps {
		out[i] = BindPred(p, schema)
	}
	return out
}

// ArithOp enumerates binary arithmetic operators.
type ArithOp uint8

// The arithmetic operators.
const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	default:
		return "?"
	}
}

// Arith is a binary arithmetic expression.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval applies the operator with numeric promotion.
func (a Arith) Eval(env Env) rel.Value {
	l, r := a.L.Eval(env), a.R.Eval(env)
	switch a.Op {
	case OpAdd:
		return rel.Add(l, r)
	case OpSub:
		return rel.Sub(l, r)
	case OpMul:
		return rel.Mul(l, r)
	case OpDiv:
		return rel.Div(l, r)
	default:
		return rel.Null()
	}
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// Attrs appends the attributes of both operands.
func (a Arith) Attrs(dst []string) []string { return a.R.Attrs(a.L.Attrs(dst)) }

// Convenience constructors.

// C wraps a value as a constant expression.
func C(v rel.Value) Expr { return Const{V: v} }

// CInt is a shorthand integer constant.
func CInt(i int64) Expr { return Const{V: rel.Int(i)} }

// CFloat is a shorthand float constant.
func CFloat(f float64) Expr { return Const{V: rel.Float(f)} }

// CStr is a shorthand string constant.
func CStr(s string) Expr { return Const{V: rel.String(s)} }

// A references an attribute.
func A(name string) Expr { return Attr{Name: name} }

// Add builds L+R.
func Add(l, r Expr) Expr { return Arith{Op: OpAdd, L: l, R: r} }

// Sub builds L-R.
func Sub(l, r Expr) Expr { return Arith{Op: OpSub, L: l, R: r} }

// Mul builds L*R.
func Mul(l, r Expr) Expr { return Arith{Op: OpMul, L: l, R: r} }

// Div builds L/R.
func Div(l, r Expr) Expr { return Arith{Op: OpDiv, L: l, R: r} }

// CmpOp enumerates comparison operators for atomic conditions.
type CmpOp uint8

// The comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "<>"
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Apply evaluates the comparison on two values. Comparisons involving
// NULL are false (so NULL from a failed arithmetic op never selects).
func (op CmpOp) Apply(l, r rel.Value) bool {
	if l.IsNull() || r.IsNull() {
		return false
	}
	c := rel.Compare(l, r)
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// Pred is a selection predicate over a tuple.
type Pred interface {
	Holds(env Env) bool
	String() string
	Attrs(dst []string) []string
}

// Cmp is an atomic condition comparing two arithmetic expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Holds evaluates the comparison.
func (c Cmp) Holds(env Env) bool { return c.Op.Apply(c.L.Eval(env), c.R.Eval(env)) }

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

// Attrs appends attributes of both sides.
func (c Cmp) Attrs(dst []string) []string { return c.R.Attrs(c.L.Attrs(dst)) }

// And is a conjunction of predicates.
type And struct{ Kids []Pred }

// Holds reports whether all conjuncts hold; the empty conjunction is true.
func (a And) Holds(env Env) bool {
	for _, k := range a.Kids {
		if !k.Holds(env) {
			return false
		}
	}
	return true
}

func (a And) String() string { return joinPreds(a.Kids, " and ") }

// Attrs appends the attributes of all conjuncts.
func (a And) Attrs(dst []string) []string {
	for _, k := range a.Kids {
		dst = k.Attrs(dst)
	}
	return dst
}

// Or is a disjunction of predicates.
type Or struct{ Kids []Pred }

// Holds reports whether any disjunct holds; the empty disjunction is
// false.
func (o Or) Holds(env Env) bool {
	for _, k := range o.Kids {
		if k.Holds(env) {
			return true
		}
	}
	return false
}

func (o Or) String() string { return joinPreds(o.Kids, " or ") }

// Attrs appends the attributes of all disjuncts.
func (o Or) Attrs(dst []string) []string {
	for _, k := range o.Kids {
		dst = k.Attrs(dst)
	}
	return dst
}

// Not negates a predicate.
type Not struct{ Kid Pred }

// Holds negates the child.
func (n Not) Holds(env Env) bool { return !n.Kid.Holds(env) }

func (n Not) String() string { return fmt.Sprintf("not (%s)", n.Kid) }

// Attrs appends the child's attributes.
func (n Not) Attrs(dst []string) []string { return n.Kid.Attrs(dst) }

func joinPreds(ps []Pred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "(" + p.String() + ")"
	}
	return strings.Join(parts, sep)
}

// Convenience predicate constructors.

// Eq builds L = R.
func Eq(l, r Expr) Pred { return Cmp{Op: CmpEq, L: l, R: r} }

// Ne builds L <> R.
func Ne(l, r Expr) Pred { return Cmp{Op: CmpNe, L: l, R: r} }

// Lt builds L < R.
func Lt(l, r Expr) Pred { return Cmp{Op: CmpLt, L: l, R: r} }

// Le builds L <= R.
func Le(l, r Expr) Pred { return Cmp{Op: CmpLe, L: l, R: r} }

// Gt builds L > R.
func Gt(l, r Expr) Pred { return Cmp{Op: CmpGt, L: l, R: r} }

// Ge builds L >= R.
func Ge(l, r Expr) Pred { return Cmp{Op: CmpGe, L: l, R: r} }

// AndOf builds a conjunction.
func AndOf(kids ...Pred) Pred { return And{Kids: kids} }

// OrOf builds a disjunction.
func OrOf(kids ...Pred) Pred { return Or{Kids: kids} }

// NotOf builds a negation.
func NotOf(kid Pred) Pred { return Not{Kid: kid} }

// Target is a projection/renaming target: expression Expr named As. A bare
// attribute copy is Target{As: "A", Expr: A("A")}; the paper's
// ρ_{P1/P2→P} is Target{As: "P", Expr: Div(A("P1"), A("P2"))}.
type Target struct {
	As   string
	Expr Expr
}

// Keep builds a target that copies attribute a unchanged.
func Keep(a string) Target { return Target{As: a, Expr: A(a)} }

// KeepAll builds identity targets for every attribute of the schema.
func KeepAll(s rel.Schema) []Target {
	out := make([]Target, len(s))
	for i, a := range s {
		out[i] = Keep(a)
	}
	return out
}

// As names an expression as an output attribute.
func As(name string, e Expr) Target { return Target{As: name, Expr: e} }

// Projection is a target list bound to an input schema (Bind), built once
// per operator call: Fill copies a plain-attribute target by position and
// evaluates any other target without a name lookup.
type Projection struct {
	schema rel.Schema
	exprs  []Expr
	src    []int // the input position a plain attribute copies, or -1
}

// BindTargets binds targets to the schema of the tuples Fill reads.
func BindTargets(targets []Target, schema rel.Schema) Projection {
	p := Projection{schema: schema, exprs: make([]Expr, len(targets)), src: make([]int, len(targets))}
	for c, tg := range targets {
		p.exprs[c], p.src[c] = Bind(tg.Expr, schema), -1
		if a, ok := p.exprs[c].(col); ok {
			p.src[c] = a.i
		}
	}
	return p
}

// Fill writes the targets over the input tuple in into row.
func (p Projection) Fill(row, in rel.Tuple) {
	for c, e := range p.exprs {
		if j := p.src[c]; j >= 0 {
			row[c] = in[j]
		} else {
			row[c] = e.Eval(Env{Schema: p.schema, Tuple: in})
		}
	}
}
