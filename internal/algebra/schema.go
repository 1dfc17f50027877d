package algebra

import (
	"fmt"

	"repro/internal/rel"
	"repro/internal/urel"
)

// InferSchema statically computes the output schema of a query against a
// database's relation schemas, reporting the same classes of errors
// evaluation would hit (unknown relations or attributes, schema
// mismatches, name collisions) without running anything. The CLI uses it
// to reject malformed programs early; tests use it to pin the schema
// semantics of every operator.
func InferSchema(q Query, db *urel.Database) (rel.Schema, error) {
	env := make(map[string]rel.Schema, len(db.Rels))
	for name, r := range db.Rels {
		env[name] = r.Schema()
	}
	return inferSchema(q, env)
}

func inferSchema(q Query, env map[string]rel.Schema) (rel.Schema, error) {
	switch n := q.(type) {
	case Base:
		s, ok := env[n.Name]
		if !ok {
			return nil, fmt.Errorf("algebra: unknown relation %q", n.Name)
		}
		return s, nil

	case Select:
		s, err := inferSchema(n.In, env)
		if err != nil {
			return nil, err
		}
		for _, a := range n.Pred.Attrs(nil) {
			if !s.Has(a) {
				return nil, fmt.Errorf("algebra: selection attribute %q not in schema %v", a, s)
			}
		}
		return s, nil

	case Project:
		s, err := inferSchema(n.In, env)
		if err != nil {
			return nil, err
		}
		out := make([]string, 0, len(n.Targets))
		seen := map[string]bool{}
		for _, tg := range n.Targets {
			for _, a := range tg.Expr.Attrs(nil) {
				if !s.Has(a) {
					return nil, fmt.Errorf("algebra: projection attribute %q not in schema %v", a, s)
				}
			}
			if seen[tg.As] {
				return nil, fmt.Errorf("algebra: duplicate projection target %q", tg.As)
			}
			seen[tg.As] = true
			out = append(out, tg.As)
		}
		return rel.NewSchema(out...), nil

	case Product:
		l, r, err := inferPair(n.L, n.R, env)
		if err != nil {
			return nil, err
		}
		for _, a := range r {
			if l.Has(a) {
				return nil, fmt.Errorf("algebra: product schemas share attribute %q; rename first", a)
			}
		}
		return rel.NewSchema(append(l.Clone(), r...)...), nil

	case Join:
		l, r, err := inferPair(n.L, n.R, env)
		if err != nil {
			return nil, err
		}
		out := l.Clone()
		for _, a := range r {
			if !l.Has(a) {
				out = append(out, a)
			}
		}
		return rel.NewSchema(out...), nil

	case Union:
		l, r, err := inferPair(n.L, n.R, env)
		if err != nil {
			return nil, err
		}
		if !l.Equal(r) {
			return nil, fmt.Errorf("algebra: union schema mismatch %v vs %v", l, r)
		}
		return l, nil

	case DiffC:
		l, r, err := inferPair(n.L, n.R, env)
		if err != nil {
			return nil, err
		}
		if !l.Equal(r) {
			return nil, fmt.Errorf("algebra: difference schema mismatch %v vs %v", l, r)
		}
		return l, nil

	case RepairKey:
		s, err := inferSchema(n.In, env)
		if err != nil {
			return nil, err
		}
		for _, a := range n.Key {
			if !s.Has(a) {
				return nil, fmt.Errorf("algebra: repair-key attribute %q not in schema %v", a, s)
			}
		}
		if !s.Has(n.Weight) {
			return nil, fmt.Errorf("algebra: repair-key weight %q not in schema %v", n.Weight, s)
		}
		return s, nil

	case Conf:
		s, err := inferSchema(n.In, env)
		if err != nil {
			return nil, err
		}
		if s.Has(n.PCol()) {
			return nil, fmt.Errorf("algebra: conf column %q already in schema %v", n.PCol(), s)
		}
		return rel.NewSchema(append(s.Clone(), n.PCol())...), nil

	case Poss, Cert:
		return inferSchema(q.Children()[0], env)

	case ApproxSelect:
		s, err := inferSchema(n.In, env)
		if err != nil {
			return nil, err
		}
		return approxSelectSchema(s, n)

	case Let:
		def, err := inferSchema(n.Def, env)
		if err != nil {
			return nil, err
		}
		old, had := env[n.Name]
		env[n.Name] = def
		res, err := inferSchema(n.In, env)
		if had {
			env[n.Name] = old
		} else {
			delete(env, n.Name)
		}
		return res, err

	default:
		return nil, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

func inferPair(l, r Query, env map[string]rel.Schema) (rel.Schema, rel.Schema, error) {
	ls, err := inferSchema(l, env)
	if err != nil {
		return nil, nil, err
	}
	rs, err := inferSchema(r, env)
	if err != nil {
		return nil, nil, err
	}
	return ls, rs, nil
}

// Explain renders the plan as an indented tree, annotating each node with
// its inferred schema when a database is supplied (nil db renders the bare
// tree).
func Explain(q Query, db *urel.Database) string {
	var env map[string]rel.Schema
	if db != nil {
		env = make(map[string]rel.Schema, len(db.Rels))
		for name, r := range db.Rels {
			env[name] = r.Schema()
		}
	}
	out := ""
	var rec func(q Query, depth int)
	rec = func(q Query, depth int) {
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "  "
		}
		label := nodeLabel(q)
		if env != nil {
			if s, err := inferSchema(q, env); err == nil {
				label += "  :: " + schemaString(s)
			}
		}
		out += indent + label + "\n"
		if l, ok := q.(Let); ok {
			out += indent + "  def " + l.Name + ":\n"
			rec(l.Def, depth+2)
			// Bind for the body rendering.
			if env != nil {
				if s, err := inferSchema(l.Def, env); err == nil {
					old, had := env[l.Name]
					env[l.Name] = s
					out += indent + "  in:\n"
					rec(l.In, depth+2)
					if had {
						env[l.Name] = old
					} else {
						delete(env, l.Name)
					}
					return
				}
			}
			out += indent + "  in:\n"
			rec(l.In, depth+2)
			return
		}
		for _, c := range q.Children() {
			rec(c, depth+1)
		}
	}
	rec(q, 0)
	return out
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
// then P1,…,Pk. It is the one place that rule lives — static inference and
// the walker's σ̂ both call it.
func approxSelectSchema(in rel.Schema, n ApproxSelect) (rel.Schema, error) {
	var out []string
	seen := map[string]bool{}
	for _, arg := range n.Args {
		for _, a := range arg.Attrs {
			if !in.Has(a) {
				return nil, fmt.Errorf("algebra: σ̂ conf attribute %q not in schema %v", a, in)
			}
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	for i := range n.Args {
		out = append(out, PColName(i))
	}
	return rel.NewSchema(out...), nil
}

func schemaString(s rel.Schema) string {
	out := "("
	for i, a := range s {
		if i > 0 {
			out += ", "
		}
		out += a
	}
	return out + ")"
}
