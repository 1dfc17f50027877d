// Package experiments contains one driver per reproducible artifact of the
// paper — its three figures, its worked examples, and its quantitative
// theorems (E1–E10, listed by All). Each driver prints a paper-style table
// and returns the key measured quantities so golden tests can assert the
// paper-vs-measured comparison. The tables measure the code users run: the
// Figure 3 algorithm and the Karp–Luby FPRAS through core.Engine, the
// (ε, δ) grid through the conformance sweep; only the brute-force oracles
// the margin formulas are compared against are the experiments' own.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/predapprox"
	"repro/internal/urel"
)

// Config controls experiment scale and determinism.
type Config struct {
	// Seed drives all randomness; equal seeds give equal tables.
	Seed int64
	// Quick shrinks trial counts for use in tests and benchmarks.
	Quick bool
	// Workers sets the engine's estimation parallelism; 0 selects
	// GOMAXPROCS. Tables are worker-count-independent by the engine's
	// determinism contract.
	Workers int
	// Ctx, when non-nil, cancels engine evaluations cooperatively: an
	// expired deadline aborts evaluation between estimation chunks with
	// ctx.Err(). Nil means context.Background(). E4's conformance sweep
	// takes no context and always runs to completion.
	Ctx context.Context
}

// ctx returns the configured context, defaulting to Background.
func (c Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// eval evaluates q approximately on a fresh engine over db under o, with
// the configured workers.
func (c Config) eval(db *urel.Database, o core.Options, q algebra.Query) (*core.Result, error) {
	o.Workers = c.Workers
	return core.NewEngine(db, o).EvalApproxContext(c.ctx(), q)
}

// shat is σ̂_φ(R) over conf[]: one decision on the confidence of all of R.
func shat(phi predapprox.Pred) algebra.Query {
	return algebra.ApproxSelect{In: algebra.Base{Name: "R"}, Args: []algebra.ConfArg{{}}, Pred: phi}
}

// flagged reports whether a σ̂ decision of res hit the ε₀ floor: a kept
// tuple that Result.IsSingular marks, or a tuple dropped as singular.
func flagged(res *core.Result) bool {
	for _, ut := range res.Rel.Tuples() {
		if res.IsSingular(ut.Row) {
			return true
		}
	}
	return res.Stats.SingularDrops > 0
}

// Summary carries an experiment's headline measurements.
type Summary struct {
	Name   string
	Values map[string]float64
}

func newSummary(name string) Summary {
	return Summary{Name: name, Values: map[string]float64{}}
}

// Print renders the summary's key/value pairs sorted by key.
func (s Summary) Print(w io.Writer) {
	keys := make([]string, 0, len(s.Values))
	for k := range s.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-40s %.6g\n", k, s.Values[k])
	}
}

// Runner is an experiment entry point.
type Runner func(w io.Writer, cfg Config) (Summary, error)

// All lists the experiments in order, keyed by id.
func All() []struct {
	ID, Title string
	Run       Runner
} {
	return []struct {
		ID, Title string
		Run       Runner
	}{
		{"E1", "Figure 1 / Example 2.2: coin tossing, U-relations and the posterior table U", E1CoinExample},
		{"E2", "Figure 2 / Example 5.4: ε-maximization geometry", E2EpsilonGeometry},
		{"E3", "Figure 3 / Theorem 5.8: adaptive predicate approximation", E3AdaptivePredicate},
		{"E4", "Section 4 / Proposition 4.2: Karp–Luby FPRAS guarantee", E4KarpLubyFPRAS},
		{"E5", "Theorem 3.4 vs Corollary 4.3: exact #P vs FPRAS crossover", E5ExactVsApprox},
		{"E6", "Theorem 5.2: closed-form ε vs brute-force orthotopes", E6LinearEpsilon},
		{"E7", "Theorem 5.5: corner-point criterion for algebraic predicates", E7CornerPoint},
		{"E8", "Definition 5.6 / Example 5.7: singularities", E8Singularity},
		{"E9", "Lemma 6.4 / Example 6.5: provenance error bounds", E9ProvenanceBounds},
		{"E10", "Theorem 6.7: end-to-end approximate query evaluation", E10QueryApprox},
	}
}

// Lookup finds an experiment by id (e.g. "E4").
func Lookup(id string) (Runner, string, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, e.Title, true
		}
	}
	return nil, "", false
}
