package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/vars"
)

// refAnn is the string-keyed form the Lemma 6.4 annotations had before
// Bounds: µ per rel.Tuple.Key (present iff µ > 0) and the set of singular
// keys. The rules below are the walker's old ones, verbatim; the test
// checks every node's Bounds against them bit for bit.
type refAnn struct {
	errs map[string]float64
	sing map[string]bool
}

func newRefAnn() refAnn { return refAnn{map[string]float64{}, map[string]bool{}} }

func (a refAnn) reliable() bool { return len(a.errs) == 0 && len(a.sing) == 0 }

// refBounded is the old Bounded: rule per (D, row) pair of out.
func refBounded(out URelResult, rule func(row rel.Tuple, k string) (float64, bool), ins ...refAnn) refAnn {
	reliable := true
	for _, in := range ins {
		reliable = reliable && in.reliable()
	}
	ann := newRefAnn()
	if reliable {
		return ann
	}
	for _, ut := range out.Rel.Tuples() {
		k := ut.Row.Key()
		mu, singular := rule(ut.Row, k)
		if mu > 0 {
			ann.errs[k] = mu
		}
		if singular {
			ann.sing[k] = true
		}
	}
	return ann
}

// refProject is the old ProjectBounds, with its double seen map.
func refProject(in URelResult, ann refAnn, targets []expr.Target) refAnn {
	out := newRefAnn()
	seen := map[string]map[string]bool{}
	env := expr.Env{Schema: in.Rel.Schema()}
	outRow := make(rel.Tuple, len(targets))
	for _, ut := range in.Rel.Tuples() {
		env.Tuple = ut.Row
		for i, tg := range targets {
			outRow[i] = tg.Expr.Eval(env)
		}
		inKey, outKey := ut.Row.Key(), outRow.Key()
		if seen[outKey] == nil {
			seen[outKey] = map[string]bool{}
		}
		if seen[outKey][inKey] {
			continue
		}
		seen[outKey][inKey] = true
		if e := ann.errs[inKey]; e != 0 {
			out.errs[outKey] += e
		}
		if ann.sing[inKey] {
			out.sing[outKey] = true
		}
	}
	return out
}

// variedEstimators is exact evaluation whose σ̂ decisions claim a bound
// and a singularity that vary with the decided combination, so that
// different tuples carry different annotations and sums are order-sensitive
// in their last bits.
type variedEstimators struct{ exactEstimators }

func (v variedEstimators) Estimate(table *vars.Table, args [][]dnf.F, decide bool) (Estimates, error) {
	est, err := v.exactEstimators.Estimate(table, args, decide)
	return variedEstimates{est}, err
}

type variedEstimates struct{ Estimates }

func (v variedEstimates) Decide(pred predapprox.Pred, combo []int, mu float64, singular bool) (bool, float64, bool) {
	keep, mu, singular := v.Estimates.Decide(pred, combo, mu, singular)
	n := 0
	for _, i := range combo {
		n = 3*n + i
	}
	if n%5 != 4 { // every fifth combination stays exactly reliable
		mu += 0.1 / float64(3+n%7)
	}
	return keep, mu, singular || n%4 == 3
}

// refEval evaluates q with ev and derives its reference annotations from
// the children's by the old rules, checking each node on the way up.
func refEval(t *testing.T, ev *URelEvaluator, q Query) (URelResult, refAnn, error) {
	t.Helper()
	res, err := ev.Eval(q)
	if err != nil {
		return res, refAnn{}, err
	}
	child := func(c Query) (URelResult, refAnn) {
		r, a, err := refEval(t, ev, c)
		if err != nil {
			t.Fatalf("child %s of evaluable %s failed: %v", c, q, err)
		}
		return r, a
	}
	var ann refAnn
	switch n := q.(type) {
	case Base:
		ann = newRefAnn()
	case ApproxSelect:
		// σ̂ over a reliable input is the source of annotations: adopt it.
		if in, _ := child(n.In); !in.Reliable() {
			t.Fatalf("generator produced a nested σ̂: %s", q)
		}
		ann = newRefAnn()
		for row, mu := range res.Bounds.All() {
			if mu > 0 {
				ann.errs[row.Key()] = mu
			}
			if _, s := res.Bounds.BoundOf(row); s {
				ann.sing[row.Key()] = true
			}
		}
		return res, ann, nil
	case Select:
		_, in := child(n.In)
		ann = refBounded(res, func(_ rel.Tuple, k string) (float64, bool) { return in.errs[k], in.sing[k] }, in)
	case Project:
		inRes, in := child(n.In)
		ann = newRefAnn()
		if !in.reliable() {
			ann = refProject(inRes, in, n.Targets)
		}
	case Product:
		lRes, l := child(n.L)
		_, r := child(n.R)
		nl := len(lRes.Rel.Schema())
		ann = refBounded(res, func(row rel.Tuple, _ string) (float64, bool) {
			lk, rk := row[:nl].Key(), row[nl:].Key()
			return l.errs[lk] + r.errs[rk], l.sing[lk] || r.sing[rk]
		}, l, r)
	case Join:
		lRes, l := child(n.L)
		rRes, r := child(n.R)
		nl := len(lRes.Rel.Schema())
		rrow := make(rel.Tuple, len(rRes.Rel.Schema()))
		ann = refBounded(res, func(row rel.Tuple, _ string) (float64, bool) {
			for i, a := range rRes.Rel.Schema() {
				rrow[i] = row[res.Rel.Schema().Index(a)]
			}
			lk, rk := row[:nl].Key(), rrow.Key()
			return l.errs[lk] + r.errs[rk], l.sing[lk] || r.sing[rk]
		}, l, r)
	case Union:
		_, l := child(n.L)
		_, r := child(n.R)
		ann = refBounded(res, func(_ rel.Tuple, k string) (float64, bool) {
			return l.errs[k] + r.errs[k], l.sing[k] || r.sing[k]
		}, l, r)
	case DiffC:
		_, l := child(n.L)
		_, r := child(n.R)
		rWorst := 0.0
		for _, v := range r.errs {
			rWorst = math.Max(rWorst, v)
		}
		ann = refBounded(res, func(_ rel.Tuple, k string) (float64, bool) {
			return l.errs[k] + rWorst, l.sing[k] || len(r.sing) > 0
		}, l, r)
	case Conf:
		_, in := child(n.In)
		ann = refBounded(res, func(row rel.Tuple, _ string) (float64, bool) {
			k := row[:len(row)-1].Key()
			return in.errs[k], in.sing[k]
		}, in)
	case Poss:
		_, ann = child(n.In)
	case Cert:
		_, ann = child(n.In)
	default:
		t.Fatalf("reference has no rule for %T", q)
	}

	// Every data tuple of the result reads the reference's annotation…
	for _, ut := range res.Rel.Tuples() {
		k := ut.Row.Key()
		mu, singular := res.Bounds.BoundOf(ut.Row)
		if math.Float64bits(mu) != math.Float64bits(ann.errs[k]) || singular != ann.sing[k] {
			t.Fatalf("%s: tuple %v annotated (%x, %v), reference (%x, %v)", q, ut.Row,
				math.Float64bits(mu), singular, math.Float64bits(ann.errs[k]), ann.sing[k])
		}
	}
	// …and the value annotates exactly the reference's keys, each once.
	keys := map[string]bool{}
	for row, mu := range res.Bounds.All() {
		k := row.Key()
		_, singular := res.Bounds.BoundOf(row)
		if keys[k] {
			t.Fatalf("%s: tuple %v annotated twice", q, row)
		}
		keys[k] = true
		if (mu > 0) != (ann.errs[k] > 0) || singular != ann.sing[k] || (mu == 0 && !singular) {
			t.Fatalf("%s: annotation of %v = (%v, %v), reference (%v, %v)", q, row, mu, singular, ann.errs[k], ann.sing[k])
		}
	}
	for k := range ann.errs {
		keys[k] = true
	}
	for k := range ann.sing {
		keys[k] = true
	}
	if len(keys) != res.Bounds.Len() || res.Reliable() != ann.reliable() {
		t.Fatalf("%s: %d annotated tuples (reliable=%v), reference %d (reliable=%v)", q,
			res.Bounds.Len(), res.Reliable(), len(keys), ann.reliable())
	}
	return res, ann, nil
}

// randAnnotatedQuery builds a random positive plan (plus −c, poss, conf)
// over σ̂ results of randDB's R(A,B) and S(B,C); plans that do not
// type-check are rejected by the evaluator and skipped by the caller.
func randAnnotatedQuery(rng *rand.Rand, depth int) Query {
	shat := func(name string, attrs ...string) Query {
		q := ApproxSelect{In: Base{Name: name}, Pred: predapprox.Linear([]float64{1}, 0.02+0.2*rng.Float64())}
		if rng.Intn(3) == 0 && len(attrs) == 2 { // two-argument σ̂
			q.Args = []ConfArg{{Attrs: attrs[:1]}, {Attrs: attrs[1:]}}
			q.Pred = predapprox.Linear([]float64{1, 1}, 0.05+0.3*rng.Float64())
		} else {
			q.Args = []ConfArg{{Attrs: attrs}}
		}
		// Drop the P columns: equal data tuples of two σ̂ then meet in ∪/⋈.
		return Project{In: q, Targets: keepTargets(attrs)}
	}
	if depth == 0 {
		switch rng.Intn(5) {
		case 0:
			return Base{Name: "R"}
		case 1:
			return Base{Name: "S"}
		case 2:
			return shat("S", "B", "C")
		default:
			return shat("R", "A", "B")
		}
	}
	sub := func() Query { return randAnnotatedQuery(rng, depth-1) }
	onlyB := func(q Query, as string) Query {
		return Project{In: q, Targets: []expr.Target{expr.As(as, expr.A("B"))}}
	}
	switch rng.Intn(9) {
	case 0:
		return Select{In: sub(), Pred: expr.Le(expr.A("B"), expr.CInt(int64(rng.Intn(3))))}
	case 1:
		return onlyB(sub(), "B") // fan-in
	case 2:
		return Join{L: sub(), R: sub()}
	case 3:
		return Union{L: sub(), R: sub()}
	case 4:
		return Product{L: onlyB(sub(), "X"), R: onlyB(sub(), "Y")}
	case 5:
		return DiffC{L: onlyB(sub(), "B"), R: onlyB(sub(), "B")}
	case 6:
		return Poss{In: sub()}
	case 7:
		return Conf{In: sub(), As: "Q"}
	default:
		return Project{In: sub(), Targets: []expr.Target{expr.Keep("B"), expr.As("Z", expr.Add(expr.A("B"), expr.CInt(1)))}}
	}
}

// TestBoundsMatchStringKeyedReference is the reference-equivalence check
// of the hashed annotations: on random annotated plans through σ, π, ×, ⋈,
// ∪, −c (and poss, conf), every node's Bounds equal the map[string]-keyed
// propagation they replaced, µ bit for bit.
func TestBoundsMatchStringKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	checked, annotated := 0, 0
	ops := map[string]int{}
	for trial := 0; trial < 400; trial++ {
		db := randDB(rng)
		q := randAnnotatedQuery(rng, 1+rng.Intn(3))
		ev := NewURelEvaluator(db).WithEstimators(variedEstimators{exactEstimators{sched.New(1)}})
		res, _, err := refEval(t, ev, q)
		if err != nil {
			continue // schema clash, −c over an incomplete input: both reject it
		}
		checked++
		if !res.Reliable() {
			annotated++
			ops[fmt.Sprintf("%T", q)]++
		}
	}
	if checked < 150 || annotated < 80 {
		t.Fatalf("only %d plans checked, %d with an annotated result", checked, annotated)
	}
	for _, op := range []string{"algebra.Select", "algebra.Project", "algebra.Product", "algebra.Join", "algebra.Union", "algebra.DiffC"} {
		if ops[op] == 0 {
			t.Errorf("no annotated result with %s at the root (coverage: %v)", op, ops)
		}
	}
}
