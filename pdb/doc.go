// Package pdb is the public, supported API of the probabilistic-database
// engine: a facade over the internal U-relational representation, the
// exact evaluators, and the Karp–Luby / Theorem 6.7 approximation engine.
// Everything under internal/ is an implementation detail; programs should
// depend on this package only.
//
// The shape of the API follows the prepare/execute pattern of database
// drivers:
//
//	db, err := pdb.Open(map[string]string{"Coins": "coins.csv"})
//	q, err := db.Prepare(`conf(project[CoinType](repairkey[@Count](Coins)))`)
//	res, err := q.Eval(ctx, pdb.WithEpsilon(0.05), pdb.WithDelta(0.1))
//	for row := range res.Rows() {
//	    fmt.Println(row.Str("CoinType"), row.Float("P"), row.ErrorBound())
//	}
//
// Databases are built either from CSV files (Open) or programmatically
// (NewBuilder): complete relations, tuple-independent probabilistic
// relations, and attribute-level uncertainty via vertical decomposition.
// Queries are written in the UA query language of internal/parser
// (select, project, join, product, union, diff, repairkey, conf, poss,
// cert, aselect, and `Name := query;` bindings) and parsed once by
// Prepare; a prepared Query can be evaluated many times.
//
// Every blocking call takes a context.Context. Cancellation is
// cooperative and prompt: the engine checks the context between plan
// operators, between a σ̂'s rounds, and between Monte-Carlo estimation
// chunks inside the worker pool, so Eval returns ctx.Err() within one
// chunk boundary without leaking goroutines or corrupting the engine's
// estimator cache.
//
// Evaluation is configured with validated functional options (WithEpsilon,
// WithDelta, WithWorkers, WithSeed, …); invalid settings are rejected with
// a typed *OptionError before any work starts — the one place a
// configuration is validated. Long-running evaluations can be observed
// with WithProgress, which reports every σ̂ round (round budget, trial
// counts, worst decision bound) and the end of the evaluation.
//
// Results are deterministic: equal databases, query text, seed, and
// accuracy targets produce bit-identical results for any worker count and
// whether or not an earlier evaluation was cancelled.
package pdb
