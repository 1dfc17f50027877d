package algebra

import (
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/worlds"
)

// WorldsEvaluator evaluates UA queries directly on the nonsuccinct
// possible-worlds representation — the definitional semantics of
// Section 2. It is the reference oracle the U-relational evaluator is
// cross-checked against.
type WorldsEvaluator struct {
	db      *worlds.Database
	nextTmp int
}

// NewWorldsEvaluator returns an evaluator over db (the database itself is
// never mutated; operations build extended copies).
func NewWorldsEvaluator(db *worlds.Database) *WorldsEvaluator {
	return &WorldsEvaluator{db: db}
}

// NewWorldsEvaluatorFromURel expands a U-relational database into explicit
// worlds first; limit caps the world count.
func NewWorldsEvaluatorFromURel(db *urel.Database, limit int64) (*WorldsEvaluator, error) {
	w, err := worlds.Expand(db, limit)
	if err != nil {
		return nil, err
	}
	return &WorldsEvaluator{db: w}, nil
}

// Eval evaluates the query. The result is returned as the final
// possible-worlds database (for inspection of the full distribution) plus
// the name of the result relation within it.
func (e *WorldsEvaluator) Eval(q Query) (*worlds.Database, string, error) {
	if _, err := compile(q, e.db.Worlds[0].Rels); err != nil {
		return nil, "", err
	}
	return e.eval(e.db, q)
}

// EvalConf evaluates the query and aggregates the result relation's
// confidence across worlds — the most common use in cross-checks.
func (e *WorldsEvaluator) EvalConf(q Query, pcol string) (*rel.Relation, error) {
	db, name, err := e.Eval(q)
	if err != nil {
		return nil, err
	}
	return db.Conf(name, pcol), nil
}

func (e *WorldsEvaluator) fresh() string {
	e.nextTmp++
	return "_t" + strconv.Itoa(e.nextTmp)
}

func (e *WorldsEvaluator) eval(db *worlds.Database, q Query) (*worlds.Database, string, error) {
	switch n := q.(type) {
	case Base: // compile resolved the name
		return db, n.Name, nil

	case Select:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		return db.Map(out, func(w worlds.World) *rel.Relation {
			return worlds.SelectWorldwise(w.Rels[in], n.Pred)
		}), out, nil

	case Project:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		return db.Map(out, func(w worlds.World) *rel.Relation {
			return worlds.ProjectWorldwise(w.Rels[in], n.Targets)
		}), out, nil

	case Product:
		db, l, r, err := e.evalPair(db, n.L, n.R)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		var perr error
		res := db.Map(out, func(w worlds.World) *rel.Relation {
			p, err := worlds.ProductWorldwise(w.Rels[l], w.Rels[r])
			if err != nil {
				perr = err
				return rel.NewRelation(rel.NewSchema())
			}
			return p
		})
		if perr != nil {
			return nil, "", perr
		}
		return res, out, nil

	case Join:
		db, l, r, err := e.evalPair(db, n.L, n.R)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		return db.Map(out, func(w worlds.World) *rel.Relation {
			return worlds.JoinWorldwise(w.Rels[l], w.Rels[r])
		}), out, nil

	case Union:
		db, l, r, err := e.evalPair(db, n.L, n.R)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		var uerr error
		res := db.Map(out, func(w worlds.World) *rel.Relation {
			u, err := worlds.UnionWorldwise(w.Rels[l], w.Rels[r])
			if err != nil {
				uerr = err
				return rel.NewRelation(rel.NewSchema())
			}
			return u
		})
		if uerr != nil {
			return nil, "", uerr
		}
		return res, out, nil

	case DiffC:
		db, l, r, err := e.evalPair(db, n.L, n.R)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		var derr error
		res := db.Map(out, func(w worlds.World) *rel.Relation {
			d, err := worlds.DiffWorldwise(w.Rels[l], w.Rels[r])
			if err != nil {
				derr = err
				return rel.NewRelation(rel.NewSchema())
			}
			return d
		})
		if derr != nil {
			return nil, "", derr
		}
		return res, out, nil

	case RepairKey:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		out := e.fresh()
		res, err := db.RepairKey(out, in, n.Key, n.Weight)
		if err != nil {
			return nil, "", err
		}
		return res, out, nil

	case Conf:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		confRel := db.Conf(in, n.PCol())
		out := e.fresh()
		res := db.Map(out, func(worlds.World) *rel.Relation { return confRel.Clone() })
		res.Complete[out] = true
		return res, out, nil

	case Poss:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		possRel := db.Poss(in)
		out := e.fresh()
		res := db.Map(out, func(worlds.World) *rel.Relation { return possRel.Clone() })
		res.Complete[out] = true
		return res, out, nil

	case Cert:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		conf := db.Conf(in, "_P")
		schema := conf.Schema()
		certRel := rel.NewRelation(schema[:len(schema)-1].Clone())
		for _, t := range conf.Tuples() {
			if t[len(t)-1].AsFloat() >= 1-1e-9 {
				certRel.Add(t[:len(t)-1])
			}
		}
		out := e.fresh()
		res := db.Map(out, func(worlds.World) *rel.Relation { return certRel.Clone() })
		res.Complete[out] = true
		return res, out, nil

	case Let:
		db1, defName, err := e.eval(db, n.Def)
		if err != nil {
			return nil, "", err
		}
		db2 := db1.Map(n.Name, func(w worlds.World) *rel.Relation {
			return w.Rels[defName].Clone()
		})
		db2.Complete[n.Name] = db1.Complete[defName]
		return e.eval(db2, n.In)

	case ApproxSelect:
		db, in, err := e.eval(db, n.In)
		if err != nil {
			return nil, "", err
		}
		// Compose σ̂ from its definition with exact world-wise conf.
		confRels := make([]*rel.Relation, len(n.Args))
		for i, a := range n.Args {
			targets := keepTargets(a.Attrs)
			proj := e.fresh()
			db = db.Map(proj, func(w worlds.World) *rel.Relation {
				return worlds.ProjectWorldwise(w.Rels[in], targets)
			})
			confRels[i] = db.Conf(proj, PColName(i))
		}
		schema, err := approxSelectSchema(db.Worlds[0].Rels[in].Schema(), n)
		if err != nil {
			return nil, "", err
		}
		sel := joinAndFilter(confRels, schema, n.Pred)
		out := e.fresh()
		res := db.Map(out, func(worlds.World) *rel.Relation { return sel.Clone() })
		res.Complete[out] = true
		return res, out, nil

	default:
		return nil, "", fmt.Errorf("algebra: unknown query node %T", q)
	}
}

func (e *WorldsEvaluator) evalPair(db *worlds.Database, l, r Query) (*worlds.Database, string, string, error) {
	db1, ln, err := e.eval(db, l)
	if err != nil {
		return nil, "", "", err
	}
	db2, rn, err := e.eval(db1, r)
	if err != nil {
		return nil, "", "", err
	}
	return db2, ln, rn, nil
}

// joinAndFilter is the reference's own σ̂ composition, independent of the
// walker's: the natural join of the per-argument confidence relations in
// σ̂'s column order (P1,…,Pk last), filtered by pred over the Pi.
func joinAndFilter(confRels []*rel.Relation, schema rel.Schema, pred predapprox.Pred) *rel.Relation {
	joined := confRels[0]
	for _, c := range confRels[1:] {
		joined = worlds.JoinWorldwise(joined, c)
	}
	out := rel.NewRelation(schema)
	x := make([]float64, len(confRels))
	for _, t := range joined.Project(schema...).Tuples() {
		for i, v := range t[len(t)-len(x):] {
			x[i] = v.AsFloat()
		}
		if pred.Eval(x) {
			out.Add(t)
		}
	}
	return out
}

func keepTargets(attrs []string) []expr.Target {
	out := make([]expr.Target, len(attrs))
	for i, a := range attrs {
		out[i] = expr.Keep(a)
	}
	return out
}
