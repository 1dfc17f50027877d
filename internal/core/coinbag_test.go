package core_test

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/urel"
	"repro/internal/workload"
)

// posteriorQuery builds the P(CoinType | all heads) query for a bag with
// the given number of tosses (the generalized Example 2.2).
func posteriorQuery(tosses int) algebra.Query {
	return conformance.CoinQuery(tosses, algebra.Project{
		In: algebra.Product{
			L: algebra.Conf{In: algebra.Base{Name: "T"}, As: "P1"},
			R: algebra.Conf{In: algebra.Project{In: algebra.Base{Name: "T"}}, As: "P2"},
		},
		Targets: []expr.Target{
			expr.Keep("CoinType"),
			expr.As("P", expr.Div(expr.A("P1"), expr.A("P2"))),
		},
	})
}

// The algebra's posterior matches Bayes' rule analytically for a grid of
// bags and evidence lengths — exactly via the #P evaluator and within
// FPRAS tolerance via the approximate engine.
func TestCoinBagPosteriorMatchesAnalytic(t *testing.T) {
	bags := []workload.CoinBag{
		{FairCount: 2, BiasedCount: 1, Bias: 1}, // the paper's bag
		{FairCount: 3, BiasedCount: 2, Bias: 0.9},
		{FairCount: 1, BiasedCount: 4, Bias: 0.7},
	}
	for _, bag := range bags {
		for tosses := 1; tosses <= 3; tosses++ {
			bag.Tosses = tosses
			db := bag.Database()
			q := posteriorQuery(tosses)
			analytic := bag.PosteriorFairAllHeads()

			exact, err := algebra.NewURelEvaluator(db).Eval(q)
			if err != nil {
				t.Fatal(err)
			}
			pExact, ok := lookupFair(exact.Rel)
			if !ok {
				t.Fatalf("bag %+v: fair tuple missing", bag)
			}
			if math.Abs(pExact-analytic) > 1e-9 {
				t.Errorf("bag %+v: exact posterior %v, analytic %v", bag, pExact, analytic)
			}

			eng := core.NewEngine(db, core.Options{Eps0: 0.05, Delta: 0.05, ConfEps: 0.03, ConfDelta: 0.02, Seed: int64(tosses)})
			approx, err := eng.EvalApprox(q)
			if err != nil {
				t.Fatal(err)
			}
			pApprox, ok := lookupFair(approx.Rel)
			if !ok {
				t.Fatalf("bag %+v: approximate fair tuple missing", bag)
			}
			// The ratio of two ε=3% estimates is within ~3·ε of the truth
			// with high probability.
			if math.Abs(pApprox-analytic) > 0.1*analytic+0.01 {
				t.Errorf("bag %+v: approx posterior %v, analytic %v", bag, pApprox, analytic)
			}
		}
	}
}

func lookupFair(r *urel.Relation) (float64, bool) {
	out := urel.Poss(r)
	for _, tp := range out.Tuples() {
		if out.Value(tp, "CoinType").AsString() == "fair" {
			return out.Value(tp, "P").AsFloat(), true
		}
	}
	return 0, false
}
