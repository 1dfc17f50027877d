// Package conformance checks the estimation engine's statistical
// contract empirically: for every workload in a fixed corpus and a sweep
// of seeds, the approximate confidence of each result tuple must land
// within the relative (ε, δ) budget of the exact oracle's value. A
// conforming engine violates the per-tuple bound on at most a δ fraction
// of checks (the Karp–Luby analysis is conservative, so observed
// coverage is normally far higher). The quick form of the suite runs in
// the ordinary test sweep; the exhaustive form is built behind the
// "conformance" tag (make conformance).
package conformance

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/workload"
)

// Case is one workload instance: a database and a confidence query whose
// exact answer is tractable enough to serve as the oracle.
type Case struct {
	Name  string
	DB    *urel.Database
	Query algebra.Query
}

// Corpus builds the workload corpus for one instance seed. The cases
// span the estimator's regimes: entangled random DNF (hard components
// that must be sampled), independent multi-tuple DNF, repair-key lineage
// from the coin-bag and data-cleaning scenarios (exactly factorable),
// and tuple-independent sensor streams.
func Corpus(seed int64) []Case {
	rng := rand.New(rand.NewSource(seed))
	return []Case{
		{
			// One entangled 12-clause DNF over 6 shared variables on one
			// tuple: a connected component too large for the exact-factoring
			// limits, so conf(R) must genuinely sample.
			Name:  "randomdnf/tight",
			DB:    workload.MultiClause(rng, "R", 1, 6, 12, 3),
			Query: algebra.Conf{In: algebra.Base{Name: "R"}},
		},
		{
			Name:  "randomdnf/wide",
			DB:    workload.MultiClause(rng, "R", 4, 4, 10, 3),
			Query: algebra.Conf{In: algebra.Base{Name: "R"}},
		},
		{
			Name:  "coinbag",
			DB:    workload.CoinBag{FairCount: 2, BiasedCount: 1, Bias: 0.9, Tosses: 3}.Database(),
			Query: CoinQuery(3, algebra.Conf{In: algebra.Base{Name: "T"}}),
		},
		{
			Name: "dirty",
			DB:   workload.DirtyCustomers(rng, 5, 3),
			Query: algebra.Conf{In: algebra.Project{
				In:      algebra.RepairKey{In: algebra.Base{Name: "Candidates"}, Key: []string{"Cluster"}, Weight: "Weight"},
				Targets: []expr.Target{expr.Keep("Cluster"), expr.Keep("Name")},
			}},
		},
		{
			Name: "sensors",
			DB:   workload.SensorReadings(rng, 4, 6),
			Query: algebra.Conf{In: algebra.Project{
				In:      algebra.Base{Name: "Readings"},
				Targets: []expr.Target{expr.Keep("Sensor")},
			}},
		},
	}
}

// CoinQuery builds the let chain of the paper's Example 2.2 over a coin-bag
// database (Coins, Faces, Tosses — workload.CoinBag) with a parametric toss
// count, and evaluates body under it:
//
//	R := π_CoinType(repair-key_∅@Count(Coins))
//	S := π_CoinType,Toss,Face(repair-key_CoinType,Toss@FProb(Faces × Tosses))
//	T := R ⋈ π_CoinType(σ_Toss=1 ∧ Face='H'(S)) ⋈ … ⋈ π_CoinType(σ_Toss=tosses ∧ Face='H'(S))
//
// so each CoinType's lineage in T is the conjunction of its repair-key
// alternatives.
func CoinQuery(tosses int, body algebra.Query) algebra.Query {
	rDef := algebra.Project{
		In:      algebra.RepairKey{In: algebra.Base{Name: "Coins"}, Weight: "Count"},
		Targets: []expr.Target{expr.Keep("CoinType")},
	}
	sDef := algebra.Project{
		In: algebra.RepairKey{
			In:     algebra.Product{L: algebra.Base{Name: "Faces"}, R: algebra.Base{Name: "Tosses"}},
			Key:    []string{"CoinType", "Toss"},
			Weight: "FProb",
		},
		Targets: []expr.Target{expr.Keep("CoinType"), expr.Keep("Toss"), expr.Keep("Face")},
	}
	var tDef algebra.Query = algebra.Base{Name: "R"}
	for i := 1; i <= tosses; i++ {
		tDef = algebra.Join{L: tDef, R: algebra.Project{
			In: algebra.Select{
				In: algebra.Base{Name: "S"},
				Pred: expr.AndOf(
					expr.Eq(expr.A("Toss"), expr.CInt(int64(i))),
					expr.Eq(expr.A("Face"), expr.CStr("H")),
				),
			},
			Targets: []expr.Target{expr.Keep("CoinType")},
		}}
	}
	return algebra.Let{Name: "R", Def: rDef,
		In: algebra.Let{Name: "S", Def: sDef,
			In: algebra.Let{Name: "T", Def: tDef, In: body}}}
}

// Options configures a conformance sweep.
type Options struct {
	Eps   float64 // relative confidence error budget (default 0.1)
	Delta float64 // per-tuple failure budget (default 0.1)
	Runs  int     // independent (corpus instance, estimator seed) runs (default 8)
	// Strata > 0 routes estimation through the stratified path
	// (core.Options.Strata); 0 exercises the flat estimator.
	Strata  int
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Eps == 0 {
		o.Eps = 0.1
	}
	if o.Delta == 0 {
		o.Delta = 0.1
	}
	if o.Runs == 0 {
		o.Runs = 8
	}
	return o
}

// Violation is one per-tuple bound failure: the approximate confidence
// landed outside want·(1 ± ε). Seed reproduces it exactly.
type Violation struct {
	Case      string
	Seed      int64
	Tuple     string
	Got, Want float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s seed=%d tuple=%s: got %v, want %v", v.Case, v.Seed, v.Tuple, v.Got, v.Want)
}

// Report aggregates a sweep: every (case, seed, tuple) check and the
// violations among them.
type Report struct {
	Checks     int
	Sampled    int64 // trials drawn across the sweep — 0 means nothing exercised sampling
	Violations []Violation
}

// Coverage returns the empirical fraction of checks inside the bound.
// The engine conforms when Coverage ≥ 1 − δ.
func (r Report) Coverage() float64 {
	if r.Checks == 0 {
		return 1
	}
	return 1 - float64(len(r.Violations))/float64(r.Checks)
}

// Run sweeps the corpus: Runs independent corpus instances, each
// evaluated exactly (the oracle) and approximately under a distinct
// estimator seed, every output tuple checked against the relative (ε, δ)
// bound. Deterministic given baseSeed and opt.
func Run(baseSeed int64, opt Options) (Report, error) {
	opt = opt.withDefaults()
	var rep Report
	for run := 0; run < opt.Runs; run++ {
		seed := baseSeed + int64(run)*1_000_003
		for _, c := range Corpus(seed) {
			exact, err := algebra.NewURelEvaluator(c.DB).Eval(c.Query)
			if err != nil {
				return rep, fmt.Errorf("%s: exact oracle: %w", c.Name, err)
			}
			eng := core.NewEngine(c.DB, core.Options{
				Eps0: 0.05, Delta: 0.05,
				ConfEps: opt.Eps, ConfDelta: opt.Delta,
				Seed: seed, Strata: opt.Strata, Workers: opt.Workers,
			})
			approx, err := eng.EvalApprox(c.Query)
			if err != nil {
				return rep, fmt.Errorf("%s: estimation: %w", c.Name, err)
			}
			rep.Sampled += approx.Stats.EstimatorTrials
			want := confByKey(urel.Poss(exact.Rel), "P")
			got := confByKey(urel.Poss(approx.Rel), "P")
			for key, w := range want {
				rep.Checks++
				g, ok := got[key]
				if !ok || absf(g-w) > opt.Eps*w+1e-12 {
					rep.Violations = append(rep.Violations, Violation{
						Case: c.Name, Seed: seed, Tuple: key, Got: g, Want: w,
					})
				}
			}
			for key := range got {
				if _, ok := want[key]; !ok {
					rep.Checks++
					rep.Violations = append(rep.Violations, Violation{
						Case: c.Name, Seed: seed, Tuple: key, Got: got[key],
					})
				}
			}
		}
	}
	return rep, nil
}

// confByKey indexes a complete conf relation by its non-P columns.
func confByKey(r *rel.Relation, pcol string) map[string]float64 {
	pi := r.Schema().Index(pcol)
	out := make(map[string]float64, r.Len())
	for _, tp := range r.Tuples() {
		var sb strings.Builder
		for i, v := range tp {
			if i == pi {
				continue
			}
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		out[sb.String()] = tp[pi].AsFloat()
	}
	return out
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
