package algebra

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/rel"
	"repro/internal/urel"
)

// node is one plan node as compile annotates it: the node's output schema
// and the facts of its subtree. l and r are the inputs in Children order:
// In; L and R; a let's Def and In.
type node struct {
	q      Query
	l, r   *node
	schema rel.Schema
	facts  facts
}

// facts are what the walker needs to know of a subtree before it runs it.
type facts uint8

const (
	holdsShat facts = 1 << iota // a σ̂: the result is unreliable, so no repair-key may read it
	holdsEst                    // a conf or σ̂: the Estimators run
	closed                      // reads only database relations and lets bound inside it
)

// InferSchema statically computes the output schema of a query against a
// database's relation schemas, reporting the same errors evaluation
// reports — unknown relations or attributes, schema mismatches, name
// collisions, repair-key above σ̂ (paper footnote 3), σ̂ arity — without
// running anything.
func InferSchema(q Query, db *urel.Database) (rel.Schema, error) {
	n, err := compile(q, db.Rels)
	if err != nil {
		return nil, err
	}
	return n.schema, nil
}

// compile checks q against the relations' schemas in one bottom-up pass and
// returns its annotated tree; of two errors it reports the first reached.
func compile[R schemaer](q Query, rels map[string]R) (*node, error) {
	c := compiler[R]{rels: rels, lets: map[string]binding{}}
	n, _, err := c.compile(q)
	return n, err
}

// schemaer is a database relation, of either evaluator's database.
type schemaer interface{ Schema() rel.Schema }

// compiler resolves a Base to the innermost let binding it or else to a
// database relation. A binding records the let depth of its body, so a
// subtree is closed when every binding it reads is deeper than the subtree.
// attrs is scratch for the attributes an operator reads.
type compiler[R schemaer] struct {
	rels  map[string]R
	lets  map[string]binding
	depth int
	attrs []string
}

type binding struct {
	def   *node
	depth int
}

// compile returns q's node and the shallowest let depth its subtree reads
// (math.MaxInt when it reads no let).
func (c *compiler[R]) compile(q Query) (*node, int, error) {
	n, free := &node{q: q}, math.MaxInt
	switch q := q.(type) {
	case Base:
		if b, ok := c.lets[q.Name]; ok {
			n.schema, free = b.def.schema, b.depth
		} else if r, ok := c.rels[q.Name]; ok {
			n.schema = r.Schema()
		} else {
			return nil, 0, fmt.Errorf("algebra: unknown relation %q", q.Name)
		}
	case Let:
		def, f, err := c.compile(q.Def)
		if err != nil {
			return nil, 0, err
		}
		old, had := c.lets[q.Name]
		c.depth++
		c.lets[q.Name] = binding{def, c.depth}
		in, g, err := c.compile(q.In)
		if c.depth--; had {
			c.lets[q.Name] = old
		} else {
			delete(c.lets, q.Name)
		}
		if err != nil {
			return nil, 0, err
		}
		n.l, n.r, n.schema, free = def, in, in.schema, min(f, g)
		n.facts = (def.facts | in.facts) &^ closed
	default:
		for i, k := range q.Children() {
			in, f, err := c.compile(k)
			if err != nil {
				return nil, 0, err
			}
			if i == 0 {
				n.l = in
			} else {
				n.r = in
			}
			n.facts, free = n.facts|in.facts&^closed, min(free, f)
		}
		if err := c.check(n); err != nil {
			return nil, 0, err
		}
	}
	if free > c.depth {
		n.facts |= closed
	}
	return n, free, nil
}

// check applies n's operator rule to its compiled inputs: the operator's
// static errors, its output schema and the facts it adds.
func (c *compiler[R]) check(n *node) error {
	if n.l == nil { // an input-less node other than Base is no operator
		return fmt.Errorf("algebra: unknown query node %T", n.q)
	}
	in := n.l.schema
	n.schema = in
	switch q := n.q.(type) {
	case Select:
		c.attrs = q.Pred.Attrs(c.attrs[:0])
		if a, ok := missing(in, c.attrs); ok {
			return fmt.Errorf("algebra: selection attribute %q not in schema %v", a, in)
		}
	case Project:
		out := make(rel.Schema, 0, len(q.Targets))
		for _, tg := range q.Targets {
			c.attrs = tg.Expr.Attrs(c.attrs[:0])
			if a, ok := missing(in, c.attrs); ok {
				return fmt.Errorf("algebra: projection attribute %q not in schema %v", a, in)
			}
			if out.Has(tg.As) {
				return fmt.Errorf("algebra: duplicate projection target %q", tg.As)
			}
			out = append(out, tg.As)
		}
		n.schema = out
	case Product:
		for _, a := range n.r.schema {
			if in.Has(a) {
				return fmt.Errorf("algebra: product schemas share attribute %q; rename first", a)
			}
		}
		n.schema = append(in.Clone(), n.r.schema...)
	case Join:
		n.schema = in.Clone()
		for _, a := range n.r.schema {
			if !in.Has(a) {
				n.schema = append(n.schema, a)
			}
		}
	case Union:
		if !in.Equal(n.r.schema) {
			return fmt.Errorf("algebra: union schema mismatch %v vs %v", in, n.r.schema)
		}
	case DiffC:
		if !in.Equal(n.r.schema) {
			return fmt.Errorf("algebra: difference schema mismatch %v vs %v", in, n.r.schema)
		}
	case RepairKey:
		if n.l.facts&holdsShat != 0 {
			return fmt.Errorf("algebra: repair-key above σ̂ is not supported (paper footnote 3)")
		}
		if a, ok := missing(in, q.Key); ok {
			return fmt.Errorf("algebra: repair-key attribute %q not in schema %v", a, in)
		}
		if !in.Has(q.Weight) {
			return fmt.Errorf("algebra: repair-key weight %q not in schema %v", q.Weight, in)
		}
	case Conf:
		if in.Has(q.PCol()) {
			return fmt.Errorf("algebra: conf column %q already in schema %v", q.PCol(), in)
		}
		n.schema, n.facts = append(in.Clone(), q.PCol()), n.facts|holdsEst
	case Poss, Cert:
	case ApproxSelect:
		if q.Pred.Arity() > len(q.Args) {
			return fmt.Errorf("algebra: σ̂ predicate arity %d exceeds %d conf arguments", q.Pred.Arity(), len(q.Args))
		}
		if len(q.Args) == 0 {
			return fmt.Errorf("algebra: σ̂ needs at least one conf argument")
		}
		var err error
		n.schema, err = approxSelectSchema(in, q)
		n.facts |= holdsShat | holdsEst
		return err
	default:
		return fmt.Errorf("algebra: unknown query node %T", q)
	}
	return nil
}

// missing returns the first of attrs not in s.
func missing(s rel.Schema, attrs []string) (string, bool) {
	for _, a := range attrs {
		if !s.Has(a) {
			return a, true
		}
	}
	return "", false
}

// Explain renders the plan as an indented tree, annotating each node with
// its inferred schema when a database is supplied and the plan checks
// against it (otherwise it renders the bare tree).
func Explain(q Query, db *urel.Database) string {
	var root *node
	if db != nil {
		root, _ = compile(q, db.Rels)
	}
	var b strings.Builder
	var rec func(q Query, n *node, depth int)
	rec = func(q Query, n *node, depth int) {
		indent := strings.Repeat("  ", depth)
		b.WriteString(indent + nodeLabel(q))
		if n != nil {
			b.WriteString("  :: " + schemaString(n.schema))
		}
		b.WriteString("\n")
		if l, ok := q.(Let); ok {
			b.WriteString(indent + "  def " + l.Name + ":\n")
			rec(l.Def, n.input(0), depth+2)
			b.WriteString(indent + "  in:\n")
			rec(l.In, n.input(1), depth+2)
			return
		}
		for i, c := range q.Children() {
			rec(c, n.input(i), depth+1)
		}
	}
	rec(q, root, 0)
	return b.String()
}

// input returns n's i-th input, or nil under a nil (bare) node.
func (n *node) input(i int) *node {
	if n == nil {
		return nil
	}
	return [2]*node{n.l, n.r}[i]
}

func nodeLabel(q Query) string {
	switch n := q.(type) {
	case Base:
		return "base " + n.Name
	case Select:
		return "select [" + n.Pred.String() + "]"
	case Project:
		return "project"
	case Product:
		return "product"
	case Join:
		return "join"
	case Union:
		return "union"
	case DiffC:
		return "diff-c"
	case RepairKey:
		return fmt.Sprintf("repair-key [%v @ %s]", n.Key, n.Weight)
	case Conf:
		return "conf → " + n.PCol()
	case Poss:
		return "poss"
	case Cert:
		return "cert"
	case ApproxSelect:
		return "σ̂ [" + n.Pred.String() + "]"
	case Let:
		return "let " + n.Name
	default:
		return fmt.Sprintf("%T", q)
	}
}

// approxSelectSchema is σ̂'s output schema over an input of schema in: the
// union of the conf arguments' attributes in order of first appearance,
// then P1,…,Pk. It is the one place that rule lives — compile and the
// possible-worlds oracle both call it.
func approxSelectSchema(in rel.Schema, n ApproxSelect) (rel.Schema, error) {
	var out rel.Schema
	for _, arg := range n.Args {
		for j, a := range arg.Attrs {
			if !in.Has(a) {
				return nil, fmt.Errorf("algebra: σ̂ conf attribute %q not in schema %v", a, in)
			}
			if slices.Contains(arg.Attrs[:j], a) {
				return nil, fmt.Errorf("algebra: σ̂ conf attribute %q repeated in one argument", a)
			}
			if !out.Has(a) {
				out = append(out, a)
			}
		}
	}
	for i := range n.Args {
		p := PColName(i)
		if out.Has(p) {
			return nil, fmt.Errorf("algebra: σ̂ column %q already among its conf attributes", p)
		}
		out = append(out, p)
	}
	return out, nil
}

func schemaString(s rel.Schema) string {
	return "(" + strings.Join(s, ", ") + ")"
}
