package pdb

import (
	"context"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/parser"
)

// Query is a prepared UA query: parsed, statically validated, and
// schema-checked against its database once, then evaluable many times.
// A Query is immutable and safe for concurrent use.
type Query struct {
	db   *DB
	plan algebra.Query
	src  string
	// eng, when non-nil, is the long-lived Engine the query was prepared
	// on: Eval resumes estimator state from its cross-query cache.
	eng *Engine
}

// Prepare parses a UA program (zero or more `Name := query;` bindings and
// a final query), validates it, and infers its schema against the
// database, so malformed programs fail here rather than mid-evaluation.
func (db *DB) Prepare(src string) (*Query, error) {
	plan, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("pdb: %w", err)
	}
	if _, err := algebra.InferSchema(plan, db.udb); err != nil {
		return nil, fmt.Errorf("pdb: %w", err)
	}
	return &Query{db: db, plan: plan, src: src}, nil
}

// Text returns the source text the query was prepared from.
func (q *Query) Text() string { return q.src }

// Explain renders the query plan with inferred schemas, without
// evaluating.
func (q *Query) Explain() string { return algebra.Explain(q.plan, q.db.udb) }

// Eval evaluates the query approximately with per-tuple error bounds
// (Theorem 6.7): confidence computations use the Karp–Luby FPRAS and σ̂
// predicates are decided on estimates, each σ̂ doubling its round budget
// until its decisions' bounds are within its share of δ. Options configure
// accuracy, seed, parallelism, and observability; invalid options are
// rejected with a typed *OptionError before any work starts.
//
// Cancelling ctx aborts the evaluation cooperatively — between plan
// operators, σ̂ rounds, and estimation chunks — and returns
// ctx.Err(). A cancelled evaluation leaves no goroutines behind, and a
// later Eval on the same Query is bit-identical to one on a fresh
// database.
//
// A query prepared through Engine.Prepare evaluates against the engine's
// persistent content-keyed estimator cache: repeated or lineage-sharing
// evaluations resume sampled trials (visible as Stats.ReusedTrials /
// Stats.CacheHits), and it and EvalExact replay the engine's memoized
// sub-plans. A repeat with the same options is bit-identical to a cold
// run; across different budgets only flat tasks are, since a stratified
// (WithStrata) lane resumes its cached trials past its budget. Resource
// limits (WithMaxTrials, WithMaxMemory) abort the evaluation with a
// typed *LimitError.
func (q *Query) Eval(ctx context.Context, opts ...Option) (*Result, error) {
	copts, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eng := core.NewEngine(q.db.udb, copts)
	if q.eng != nil {
		eng.SetCache(q.eng.cache)
		eng.SetMemo(q.eng.memo)
		if q.eng.coord != nil {
			// Clustered engine: sampling scatters to the shard peers; the
			// trajectory — and every output bit — matches local execution.
			eng.SetDistributor(q.eng.coord)
		}
		defer q.eng.beginEval()()
	}
	res, err := eng.EvalApproxContext(ctx, q.plan)
	if err != nil {
		if q.eng != nil {
			q.eng.recordFailure(err)
		}
		return nil, err
	}
	out := newResult(res.Rel, res.Complete, res.Bounds, approxStats(res.Stats))
	if q.eng != nil {
		q.eng.record(out.stats)
	}
	return out, nil
}

// EvalExact evaluates the query with exact confidence computation (#P in
// general — use Eval for large lineages). The context is checked between
// plan operators.
//
// Exact evaluation honours WithWorkers — the exact confidence of each
// lineage group runs across the worker pool, while the operators and the
// plan walk run sequentially, with results bit-identical for any worker
// count — and reports per-operator work in Result.Stats().Ops. It also
// honours WithMaxMemory (a tripped budget aborts with a typed
// *LimitError, exactly like Eval). Accuracy and sampling options (ε, δ,
// seed, rounds, resume, WithMaxTrials — exact evaluation samples
// nothing) do not apply to the exact path and are validated but
// otherwise ignored.
func (q *Query) EvalExact(ctx context.Context, opts ...Option) (*Result, error) {
	copts, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eng := core.NewEngine(q.db.udb, copts)
	if q.eng != nil {
		eng.SetMemo(q.eng.memo)
		defer q.eng.beginEval()()
	}
	res, err := eng.EvalExactContext(ctx, q.plan)
	if err != nil {
		if q.eng != nil {
			q.eng.recordFailure(err)
		}
		return nil, err
	}
	return newResult(res.Rel, res.Complete, nil,
		Stats{Ops: res.Ops, SpilledBytes: res.SpilledBytes, SpillFiles: res.SpillFiles}), nil
}
