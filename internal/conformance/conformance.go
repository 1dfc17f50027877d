// Package conformance checks the estimation engine's statistical
// contract empirically: for every workload in a fixed corpus and a sweep
// of seeds, the approximate confidence of each result tuple must land
// within the relative (ε, δ) budget of the exact oracle's value, and the
// σ̂ cases must decide membership right on all but a δ fraction of the
// tuples their oracle decides clearly. A conforming engine violates the
// per-tuple bound on at most a δ fraction of checks (the Karp–Luby
// analysis is conservative, so observed coverage is normally far higher).
// The quick form of the suite runs in the ordinary test sweep; the
// exhaustive form is built behind the "conformance" tag (make
// conformance).
package conformance

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/parser"
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
	// Oracle, on a σ̂ case, is the exact conf query whose P decides
	// membership in Query's output at threshold Tau: a tuple of the output
	// belongs there when the largest P of the oracle tuples projecting onto
	// it is ≥ Tau (a projection keeps a merged tuple when any part passes).
	Oracle algebra.Query
	Tau    float64
}

// Corpus builds the workload corpus for one instance seed. The cases
// span the estimator's regimes: entangled random DNF (hard components
// that must be sampled), independent multi-tuple DNF, repair-key lineage
// from the coin-bag and data-cleaning scenarios (exactly factorable),
// tuple-independent sensor streams, and σ̂ over chained sensor readings —
// alone, over another σ̂, under a projection that merges its tuples, and
// under a conf.
func Corpus(seed int64) []Case {
	rng := rand.New(rand.NewSource(seed))
	hot := hotReadings(rand.New(rand.NewSource(seed+1)), 4, 12)
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
		shatCase("shat/sensors", hot, 0.6, `project[Sensor](aselect[p1 >= 0.6 over conf[Sensor]](`+hotSensors+`))`,
			`conf(`+hotSensors+`)`),
		// The outer σ̂ reads the inner one's output joined back to H, one
		// tuple per reading: no fan-in.
		shatCase("shat/nested", hot, 0.5, `project[Sensor, Epoch](aselect[p1 >= 0.5 over conf[Sensor, Epoch]](`+
			`join(project[Sensor](aselect[p1 >= 0.05 over conf[Sensor]](`+hotSensors+`)), H)))`,
			`conf(join(project[Sensor](aselect[p1 >= 0.05 over conf[Sensor]](`+hotSensors+`)), H))`),
		// Example 6.5's fan-in: each sensor's hot epochs with a hot neighbour
		// merge into one tuple.
		shatCase("shat/fanin", hot, 0.3, `project[Sensor](aselect[p1 >= 0.3 over conf[Sensor, Epoch]](`+hotPairs+`))`,
			`conf(`+hotPairs+`)`),
		shatCase("shat/conf", hot, 0.6, `project[Sensor](conf(aselect[p1 >= 0.6 over conf[Sensor]](`+hotSensors+`)))`,
			`conf(`+hotSensors+`)`),
	}
}

// hotEpochs binds H, the sensors' hot epochs after repair-key picks one
// reading per (sensor, epoch), and N and M, H shifted one epoch back and
// forward; hotSensors pairs consecutive hot epochs, so a sensor's lineage
// chains its readings' variables and does not factor.
const (
	hotEpochs = `D := project[Sensor, Epoch, Value](repairkey[Sensor, Epoch @ Conf](Readings));
H := project[Sensor, Epoch](select[Value >= 25](D)); N := project[Sensor, Epoch - 1 as Epoch](H);
M := project[Sensor, Epoch + 1 as Epoch](H); `
	hotSensors = `project[Sensor](join(H, N))`
	hotPairs   = `union(join(H, N), join(H, M))`
)

// shatCase is a σ̂ case over the hot readings, the hotEpochs program before
// query and oracle; query's columns are the ones the oracle decides.
func shatCase(name string, db *urel.Database, tau float64, query, oracle string) Case {
	q, err := parser.Parse(hotEpochs + query)
	o, err2 := parser.Parse(hotEpochs + oracle)
	if err != nil || err2 != nil {
		panic(fmt.Sprint(err, err2))
	}
	return Case{Name: name, DB: db, Query: q, Oracle: o, Tau: tau}
}

// hotReadings builds Readings(Sensor, Epoch, Value, Conf): a hot (30) and a
// cold (20) reading per sensor and epoch, the hot one weighted by a sensor
// reliability in [0.15, 0.7] times a per-epoch factor in [0.8, 1].
func hotReadings(rng *rand.Rand, sensors, epochs int) *urel.Database {
	db := urel.NewDatabase()
	r := rel.NewRelation(rel.NewSchema("Sensor", "Epoch", "Value", "Conf"))
	for s := 0; s < sensors; s++ {
		reliability := 0.15 + 0.55*rng.Float64()
		for e := 0; e < epochs; e++ {
			w := reliability * (0.8 + 0.2*rng.Float64())
			r.Add(rel.Tuple{rel.Int(int64(s)), rel.Int(int64(e)), rel.Int(30), rel.Float(w)})
			r.Add(rel.Tuple{rel.Int(int64(s)), rel.Int(int64(e)), rel.Int(20), rel.Float(1 - w)})
		}
	}
	db.AddComplete("Readings", r)
	return db
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
	// Eps is conf's relative error budget and σ̂'s ε₀ (default 0.1).
	Eps float64
	// Delta is the per-tuple failure budget of conf and σ̂ (default 0.1).
	Delta float64
	Runs  int // independent (corpus instance, estimator seed) runs (default 8)
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
// violations among them, and the σ̂ cases' decisions.
type Report struct {
	Checks     int
	Sampled    int64 // trials drawn across the sweep — 0 means nothing exercised sampling
	Violations []Violation
	// Decided counts the σ̂ output tuples the oracle decides clearly — P ≥
	// τ/(1−ε₀) present, P ≤ τ/(1+ε₀) absent — and WrongDecisions those the
	// engine decided otherwise; the engine conforms when they are at most a
	// δ fraction. Rewalks sums the σ̂ cases' Stats.Restarts.
	Decided, WrongDecisions, Rewalks int
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
			oracle := c.Query
			if c.Oracle != nil {
				oracle = c.Oracle
			}
			exact, err := algebra.NewURelEvaluator(c.DB).Eval(oracle)
			if err != nil {
				return rep, fmt.Errorf("%s: exact oracle: %w", c.Name, err)
			}
			eng := core.NewEngine(c.DB, core.Options{
				Eps0: opt.Eps, Delta: opt.Delta,
				Seed: seed, Strata: opt.Strata, Workers: opt.Workers,
			})
			approx, err := eng.EvalApprox(c.Query)
			if err != nil {
				return rep, fmt.Errorf("%s: estimation: %w", c.Name, err)
			}
			rep.Sampled += approx.Stats.EstimatorTrials
			if c.Oracle != nil {
				rep.decisions(c, opt.Eps, exact, approx)
				continue
			}
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

// decisions checks a σ̂ case's output against its exact oracle's.
func (rep *Report) decisions(c Case, eps0 float64, exact algebra.URelResult, approx *core.Result) {
	rep.Rewalks += approx.Stats.Restarts
	keys := approx.Rel.Schema()
	present := map[string]bool{}
	for _, tp := range urel.Poss(approx.Rel).Tuples() {
		present[tp.String()] = true
	}
	best := map[string]float64{}
	oracle := urel.Poss(exact.Rel)
	for _, tp := range oracle.Project(append(keys.Clone(), "P")...).Tuples() {
		key := tp[:len(keys)].String()
		best[key] = max(best[key], tp[len(keys)].AsFloat())
	}
	for key, p := range best {
		if clear := p >= c.Tau/(1-eps0) || p <= c.Tau/(1+eps0); clear {
			rep.Decided++
			if present[key] != (p >= c.Tau) {
				rep.WrongDecisions++
			}
		}
	}
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
