package algebra

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/urel"
)

// URelResult is the outcome of exact evaluation on a U-relational
// database: the result U-relation (complete relations are U-relations with
// empty D columns) and the completeness flag c(result). Ops carries the
// evaluation's per-operator statistics; it is set only on the result of a
// top-level Eval/EvalContext call, never on intermediate results.
type URelResult struct {
	Rel      *urel.Relation
	Complete bool
	// Bounds are the Lemma 6.4 annotations approximate evaluation
	// propagates next to the relation (see bounds.go): per data tuple, the
	// membership-error bound µ and whether it depends on a potential
	// ε₀-singularity. Nil on a reliable result — always under exact
	// evaluation, and below the first σ̂ of an approximate one.
	Bounds *Bounds
	Ops    urel.StatsMap
	// SpilledBytes and SpillFiles report out-of-core activity (WithSpill):
	// total bytes written to spill files and the number of spill files
	// created. Zero without spilling. Like Ops, set only on top-level
	// results.
	SpilledBytes int64
	SpillFiles   int
	// memo is the engine memo's entry holding Rel, when Rel came from one
	// (walkMemo): a conf over it keeps its P values there (confP).
	memo *memoEntry
}

// URelEvaluator is the plan walker: it evaluates UA queries on a
// U-relational database — positive relational algebra and repair-key by
// the parsimonious translation, conf and σ̂ through its Estimators (exact
// #P computation unless WithEstimators installs sampling ones), with the
// Lemma 6.4 annotations of unreliable inputs propagated alongside. The
// evaluator works on a clone of the database, so repair-key never mutates
// the caller's variable table.
//
// The walker visits the plan one node at a time, left input before right,
// and every operator is one sequential pass. A pool-backed evaluator
// (NewParallelURelEvaluator) fans out only the exact confidences of conf,
// σ̂ and cert, one task per lineage group; results are bit-identical for
// any worker count.
type URelEvaluator struct {
	db     *urel.Database
	nextRK int
	pool   *sched.Pool
	ctrs   *urel.Counters
	exec   *urel.Exec
	// ctx, when non-nil, is checked at every operator so a cancelled
	// evaluation aborts between nodes with ctx.Err().
	ctx context.Context
	// mem, when non-nil, bounds the evaluation's materialized bytes (see
	// WithBudget); checked next to ctx at every operator.
	mem *urel.MemBudget
	// spill, when non-nil alongside mem, turns the budget into a
	// high-water mark: over-budget intermediates move to spill files
	// instead of aborting the evaluation (see WithSpill).
	spill *urel.Spill
	// est supplies the confidences of conf and σ̂ (see WithEstimators).
	est Estimators
	// shared is the engine's memo (see WithMemo).
	shared *SubplanMemo
}

// NewURelEvaluator clones db and returns a sequential evaluator over the
// clone.
func NewURelEvaluator(db *urel.Database) *URelEvaluator {
	return NewParallelURelEvaluator(db, nil)
}

// NewParallelURelEvaluator clones db and returns an evaluator whose exact
// per-group confidences run across pool's workers. A nil pool selects one
// worker.
func NewParallelURelEvaluator(db *urel.Database, pool *sched.Pool) *URelEvaluator {
	if pool == nil {
		pool = sched.New(1)
	}
	return &URelEvaluator{db: db.Clone(), pool: pool, est: exactEstimators{pool}}
}

// DB exposes the evaluator's (cloned) database; repair-key applications
// grow its variable table.
func (e *URelEvaluator) DB() *urel.Database { return e.db }

// WithBudget bounds the evaluation's materialized bytes: every operator
// charges its output's estimated footprint, the blow-up operators (join,
// product) stop producing mid-operator once the budget trips, and the
// evaluation aborts with a *urel.MemLimitError at the next operator
// boundary. Returns e for chaining; a nil budget disables the checks.
func (e *URelEvaluator) WithBudget(b *urel.MemBudget) *URelEvaluator {
	e.mem = b
	return e
}

// WithSpill attaches a spill manager for out-of-core execution: combined
// with WithBudget, intermediate relations whose footprint pushes the
// budget over its limit are shed to spill files and transparently reloaded
// when a later operator needs them, so the evaluation completes instead of
// aborting with a memory-limit error. Results are bit-identical to an
// unspilled run. The caller owns s's lifecycle (Close removes the
// directory). A nil s disables spilling.
func (e *URelEvaluator) WithSpill(s *urel.Spill) *URelEvaluator {
	e.spill = s
	return e
}

// WithEstimators replaces the exact confidence computation under conf and
// σ̂ (estimate.go), turning the evaluator into an approximate one. The
// walker calls est from its own goroutine, in plan order, so estimators
// that consume shared state stay deterministic. Returns e for chaining.
func (e *URelEvaluator) WithEstimators(est Estimators) *URelEvaluator {
	e.est = est
	return e
}

// WithMemo makes the walker answer estimator-free sub-plans from m, a memo
// over the database it cloned, and store their walks in it; a spilling
// walker bypasses m. Returns e for chaining; nil walks every sub-plan.
func (e *URelEvaluator) WithMemo(m *SubplanMemo) *URelEvaluator {
	e.shared = m
	return e
}

// Eval evaluates the query and returns the result relation.
func (e *URelEvaluator) Eval(q Query) (URelResult, error) {
	return e.EvalContext(context.Background(), q)
}

// EvalContext evaluates the query with cooperative cancellation: ctx is
// checked before every operator, so a cancelled or expired context aborts
// the evaluation between nodes and returns ctx.Err(). Exact confidence
// computation on one operator's lineage is not interruptible — the check
// granularity is the plan node. Every call starts a new evaluation: it
// compiles q, so a plan that does not check (InferSchema) runs nothing,
// and Ops report its work alone.
func (e *URelEvaluator) EvalContext(ctx context.Context, q Query) (URelResult, error) {
	plan, err := compile(q, e.db.Rels)
	if err != nil {
		return URelResult{}, err
	}
	e.ctrs = urel.NewCounters()
	e.exec = urel.NewExec(e.pool, e.ctrs).WithBudget(e.mem).WithSpill(e.spill)
	e.ctx = ctx
	res, err := e.eval(plan)
	if err != nil {
		return res, err
	}
	// The final result may itself have been shed while later operators ran;
	// callers read it directly, so bring it home and surface any I/O
	// failure from doing so.
	e.exec.Ensure(res.Rel)
	if err := e.exec.Err(); err != nil {
		return URelResult{}, err
	}
	res.Ops = e.ctrs.Snapshot()
	if e.spill != nil {
		res.SpilledBytes = e.spill.Bytes()
		res.SpillFiles = e.spill.Files()
	}
	return res, nil
}

// eval evaluates one plan node, bracketing it with the cooperative check:
// a cancelled evaluation starts no further node, and a budget tripped
// mid-operator must surface before the parent operator (an exact conf's #P
// computation, a sampled conf's estimation budget) consumes the partial
// output. The node itself goes through the engine's memo (walkMemo).
func (e *URelEvaluator) eval(n *node) (URelResult, error) {
	if err := e.check(); err != nil {
		return URelResult{}, err
	}
	res, err := e.walkMemo(n)
	if err == nil {
		err = e.check()
	}
	if err != nil {
		return URelResult{}, err
	}
	return res, nil
}

// check is the cooperative check between operators: cancellation, spill
// I/O failure and the memory limit.
func (e *URelEvaluator) check() error {
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	if err := e.exec.Err(); err != nil {
		// A spill I/O failure means some operator saw incomplete inputs;
		// the whole evaluation is abandoned, never silently wrong.
		return err
	}
	// Under out-of-core execution the budget is a residency high-water
	// mark, not an abort condition — only spill I/O failures end the run.
	if e.spill == nil {
		return e.mem.Err()
	}
	return nil
}

// evalNode is the one switch over plan node types. Each operator's
// Lemma 6.4 propagation rule sits next to it as a BoundRule; Bounded
// consults the rule only when an input is annotated (bounds.go).
func (e *URelEvaluator) evalNode(n *node) (URelResult, error) {
	switch q := n.q.(type) {
	case Base: // compile resolved the name
		return URelResult{Rel: e.db.Rels[q.Name], Complete: e.db.Complete[q.Name]}, nil

	case Select:
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: e.exec.Select(in.Rel, q.Pred), Complete: in.Complete}
		// (t, σ_φ(R)) ≺ (t, R): bounds carry over for surviving tuples.
		return out.Bounded(in.Bounds.BoundOf, in), nil

	case Project:
		if _, ok := n.l.q.(Join); ok {
			l, r, err := e.evalPair(n.l.l, n.l.r)
			if err != nil {
				return URelResult{}, err
			}
			// π over ⋈ runs as one operator, its joined rows never stored,
			// where that changes no statistic: one input complete by c, so
			// no two joined pairs merge. Annotated inputs take the two
			// operators, whose bound rules read the join's rows.
			if (l.Complete || r.Complete) && l.Reliable() && r.Reliable() {
				return URelResult{Rel: e.exec.ProjectJoin(l.Rel, r.Rel, q.Targets), Complete: l.Complete && r.Complete}, nil
			}
			in := e.join(l, r)
			if err := e.check(); err != nil {
				return URelResult{}, err
			}
			return e.project(in, q.Targets), nil
		}
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		return e.project(in, q.Targets), nil

	case Product:
		l, r, err := e.evalPair(n.l, n.r)
		if err != nil {
			return URelResult{}, err
		}
		p, err := e.exec.Product(l.Rel, r.Rel)
		if err != nil {
			return URelResult{}, err
		}
		nl := len(l.Rel.Schema())
		out := URelResult{Rel: p, Complete: l.Complete && r.Complete}
		return out.Bounded(func(row rel.Tuple) (float64, bool) {
			return pairBound(l.Bounds, row[:nl], r.Bounds, row[nl:])
		}, l, r), nil

	case Join:
		l, r, err := e.evalPair(n.l, n.r)
		if err != nil {
			return URelResult{}, err
		}
		return e.join(l, r), nil

	case Union:
		l, r, err := e.evalPair(n.l, n.r)
		if err != nil {
			return URelResult{}, err
		}
		u, err := e.exec.Union(l.Rel, r.Rel)
		if err != nil {
			return URelResult{}, err
		}
		out := URelResult{Rel: u, Complete: l.Complete && r.Complete}
		// (t, R ∪ S) ≺ (t, R), (t, S): a tuple of both sides sums both.
		return out.Bounded(func(row rel.Tuple) (float64, bool) {
			return pairBound(l.Bounds, row, r.Bounds, row)
		}, l, r), nil

	case DiffC:
		l, r, err := e.evalPair(n.l, n.r)
		if err != nil {
			return URelResult{}, err
		}
		if !l.Complete || !r.Complete {
			return URelResult{}, fmt.Errorf("algebra: −c requires inputs complete by c")
		}
		d, err := e.exec.DiffComplete(l.Rel, r.Rel)
		if err != nil {
			return URelResult{}, err
		}
		// Difference is not in the positive fragment of Lemma 6.4; the
		// conservative bound adds the right side's worst tuple error for
		// each left tuple (a right tuple wrongly present/absent can flip
		// a left tuple's membership in the result).
		rWorst, rSingular := r.Bounds.Worst(false)
		out := URelResult{Rel: d, Complete: true}
		return out.Bounded(func(row rel.Tuple) (float64, bool) {
			mu, singular := l.Bounds.BoundOf(row)
			return mu + rWorst, singular || rSingular
		}, l, r), nil

	case RepairKey:
		// Reliable input: compile keeps σ̂ out of it (footnote 3), and a let
		// binds only reliable relations.
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		e.nextRK++
		prefix := "rk" + strconv.Itoa(e.nextRK)
		rk, err := e.exec.RepairKey(in.Rel, q.Key, q.Weight, e.db.Vars, prefix)
		if err != nil {
			return URelResult{}, err
		}
		return URelResult{Rel: rk, Complete: false}, nil

	case Conf:
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		return e.conf(in, q.PCol())

	case Poss:
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		// poss and cert keep data tuples, so the annotations pass through.
		return URelResult{Rel: urel.FromComplete(e.exec.Poss(in.Rel)), Complete: true, Bounds: in.Bounds}, nil

	case Cert:
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		// cert is a conf = 1 test: a singularity for approximation
		// (Example 5.7), so every Estimators computes it exactly.
		return URelResult{Rel: urel.FromComplete(e.exec.CertExact(in.Rel, e.db.Vars)), Complete: true, Bounds: in.Bounds}, nil

	case Let:
		def, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		// A binding's annotations could not flow to its Base references.
		if !def.Reliable() {
			return URelResult{}, fmt.Errorf("algebra: let-binding %q of an unreliable relation is not supported; apply σ̂ in the body", q.Name)
		}
		oldRel, hadRel := e.db.Rels[q.Name]
		oldC := e.db.Complete[q.Name]
		e.db.Rels[q.Name] = def.Rel
		e.db.Complete[q.Name] = def.Complete
		res, err := e.eval(n.r)
		if hadRel {
			e.db.Rels[q.Name] = oldRel
			e.db.Complete[q.Name] = oldC
		} else {
			delete(e.db.Rels, q.Name)
			delete(e.db.Complete, q.Name)
		}
		return res, err

	case ApproxSelect:
		in, err := e.eval(n.l)
		if err != nil {
			return URelResult{}, err
		}
		return e.approxSelect(in, n, q)

	default:
		return URelResult{}, fmt.Errorf("algebra: unknown query node %T", q)
	}
}

// project is π with its bound rule.
func (e *URelEvaluator) project(in URelResult, targets []expr.Target) URelResult {
	return URelResult{Rel: e.exec.Project(in.Rel, targets), Complete: in.Complete,
		Bounds: ProjectBounds(in, targets)}
}

// join is ⋈ with its bound rule.
func (e *URelEvaluator) join(l, r URelResult) URelResult {
	out := URelResult{Rel: e.exec.Join(l.Rel, r.Rel), Complete: l.Complete && r.Complete}
	// An output row is the left row followed by the right row's
	// non-shared attributes; rIdx finds the whole right row in it.
	nl, outSchema := len(l.Rel.Schema()), out.Rel.Schema()
	rIdx := make([]int, len(r.Rel.Schema()))
	for i, a := range r.Rel.Schema() {
		rIdx[i] = outSchema.Index(a)
	}
	rrow := make(rel.Tuple, len(rIdx))
	return out.Bounded(func(row rel.Tuple) (float64, bool) {
		for i, j := range rIdx {
			rrow[i] = row[j]
		}
		return pairBound(l.Bounds, row[:nl], r.Bounds, rrow)
	}, l, r)
}

// evalPair evaluates the two inputs of a binary operator, left then right.
func (e *URelEvaluator) evalPair(l, r *node) (URelResult, URelResult, error) {
	lr, err := e.eval(l)
	if err != nil {
		return URelResult{}, URelResult{}, err
	}
	rr, err := e.eval(r)
	if err != nil {
		return URelResult{}, URelResult{}, err
	}
	return lr, rr, nil
}
