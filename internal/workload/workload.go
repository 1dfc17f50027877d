package workload

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dnf"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// TupleIndependent builds a database with relation name(ID) of n tuples,
// tuple i present independently with probability probs[i].
func TupleIndependent(name string, probs []float64) *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i := range probs {
		r.Add(vars.MustAssignment(vars.Binding{Var: vars.Var(i), Alt: 0}), rel.Tuple{rel.Int(int64(i))})
	}
	registerBinary(db.Vars, len(probs), func(i int) float64 { return probs[i] },
		func(i int) uint64 { return vars.RowID(name, i) },
		func(i int) string { return name + "_t" + strconv.Itoa(i) }, "in", "out")
	db.AddURelation(name, r, false)
	return db
}

// registerBinary registers n two-alternative variables in tab in one
// registration: variable i has Pr[alt 0] = p(i), identity id(i) and
// display name name(i); alts, if given, name the two alternatives.
func registerBinary(tab *vars.Table, n int, p func(i int) float64, id func(i int) uint64, name func(i int) string, alts ...string) {
	ids, probs, start := make([]uint64, n), make([]float64, 2*n), make([]int32, n+1)
	for i := range ids {
		ids[i], probs[2*i], probs[2*i+1], start[i+1] = id(i), p(i), 1-p(i), int32(2*i+2)
	}
	names := &vars.Names{Var: name}
	if alts != nil {
		names.Alt = func(_, alt int) string { return alts[alt] }
	}
	tab.Register(ids, probs, start, names)
}

// UniformProbs returns n probabilities drawn uniformly from [lo, hi].
func UniformProbs(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float64()
	}
	return out
}

// RandomDNF registers nVars fresh binary variables in tab (probabilities
// uniform in [0.2, 0.8]) and returns a clause set of nClauses random
// conjunctions of up to maxLits literals over them. Conflicting random
// clauses are re-drawn, so the result has exactly nClauses clauses.
func RandomDNF(rng *rand.Rand, tab *vars.Table, nVars, nClauses, maxLits int) dnf.F {
	base := tab.Len()
	ps := make([]float64, nVars)
	for i := range ps {
		ps[i] = 0.2 + 0.6*rng.Float64()
	}
	prefix := "d" + strconv.Itoa(base) + "_"
	registerBinary(tab, nVars, func(i int) float64 { return ps[i] },
		func(i int) uint64 { return vars.RowID(prefix, i) },
		func(i int) string { return prefix + strconv.Itoa(i) })
	f := make(dnf.F, 0, nClauses)
	seen := map[string]bool{}
	for len(f) < nClauses {
		nl := 1 + rng.Intn(maxLits)
		var bs []vars.Binding
		for l := 0; l < nl; l++ {
			bs = append(bs, vars.Binding{
				Var: vars.Var(base + rng.Intn(nVars)),
				Alt: int32(rng.Intn(2)),
			})
		}
		a, err := vars.NewAssignment(bs...)
		if err != nil {
			continue
		}
		if k := a.Key(); !seen[k] {
			seen[k] = true
			f = append(f, a)
		}
	}
	return f
}

// MultiClause builds a database with relation name(ID) of n tuples, where
// tuple i's lineage is a random DNF of clauses clauses over nVars fresh
// variables — confidences require genuine Karp–Luby estimation (unlike the
// singleton lineages of TupleIndependent).
func MultiClause(rng *rand.Rand, name string, n, nVars, clauses, maxLits int) *urel.Database {
	db := urel.NewDatabase()
	fs := make([]dnf.F, n)
	for i := range fs {
		fs[i] = RandomDNF(rng, db.Vars, nVars, clauses, maxLits)
	}
	Lineage(db, name, fs...)
	return db
}

// Lineage adds relation name(ID) to db with one tuple per clause set: tuple
// i's lineage is fs[i], over variables of db.Vars. One clause set makes a
// one-tuple relation, the way to hand a DNF to the engine's conf and σ̂.
func Lineage(db *urel.Database, name string, fs ...dnf.F) {
	r := urel.NewRelation(rel.NewSchema("ID"))
	for i, f := range fs {
		for _, a := range f {
			r.Add(a, rel.Tuple{rel.Int(int64(i))})
		}
	}
	db.AddURelation(name, r, false)
}

// CoinBag is the generalized Example 2.2 instance: a bag with fairCount
// fair coins and biasedCount coins of the given head bias, and a number of
// observed tosses.
type CoinBag struct {
	FairCount, BiasedCount int
	Bias                   float64 // P(H) of the biased coin type
	Tosses                 int
}

// Database builds the complete relations Coins(CoinType, Count),
// Faces(CoinType, Face, FProb) and Tosses(Toss) for the bag.
func (c CoinBag) Database() *urel.Database {
	db := urel.NewDatabase()
	db.AddComplete("Coins", rel.FromRows(rel.NewSchema("CoinType", "Count"),
		rel.Tuple{rel.String("fair"), rel.Int(int64(c.FairCount))},
		rel.Tuple{rel.String("biased"), rel.Int(int64(c.BiasedCount))},
	))
	faces := rel.NewRelation(rel.NewSchema("CoinType", "Face", "FProb"))
	faces.Add(rel.Tuple{rel.String("fair"), rel.String("H"), rel.Float(0.5)})
	faces.Add(rel.Tuple{rel.String("fair"), rel.String("T"), rel.Float(0.5)})
	if c.Bias >= 1 {
		faces.Add(rel.Tuple{rel.String("biased"), rel.String("H"), rel.Float(1)})
	} else {
		faces.Add(rel.Tuple{rel.String("biased"), rel.String("H"), rel.Float(c.Bias)})
		faces.Add(rel.Tuple{rel.String("biased"), rel.String("T"), rel.Float(1 - c.Bias)})
	}
	db.AddComplete("Faces", faces)
	tosses := rel.NewRelation(rel.NewSchema("Toss"))
	for i := 1; i <= c.Tosses; i++ {
		tosses.Add(rel.Tuple{rel.Int(int64(i))})
	}
	db.AddComplete("Tosses", tosses)
	return db
}

// PosteriorFairAllHeads returns the analytic posterior probability that
// the drawn coin is fair given that all tosses came up heads — the ground
// truth for the generalized coin experiment.
func (c CoinBag) PosteriorFairAllHeads() float64 {
	total := float64(c.FairCount + c.BiasedCount)
	pFair := float64(c.FairCount) / total
	pBiased := float64(c.BiasedCount) / total
	likeFair := 1.0
	likeBiased := 1.0
	for i := 0; i < c.Tosses; i++ {
		likeFair *= 0.5
		likeBiased *= c.Bias
	}
	return pFair * likeFair / (pFair*likeFair + pBiased*likeBiased)
}

// DirtyCustomers builds the data-cleaning scenario the paper's
// introduction motivates: Candidates(Cluster, Name, Weight) holds
// alternative canonical records per duplicate cluster with match weights.
// repair-key_{Cluster}@Weight picks one record per cluster; confidence
// predicates then select clusters resolved with high certainty.
func DirtyCustomers(rng *rand.Rand, clusters, altsPerCluster int) *urel.Database {
	db := urel.NewDatabase()
	cand := rel.NewRelation(rel.NewSchema("Cluster", "Name", "Weight"))
	for c := 0; c < clusters; c++ {
		for a := 0; a < altsPerCluster; a++ {
			w := 0.1 + rng.Float64()
			if a == 0 && rng.Intn(2) == 0 {
				w += 2 // a dominant candidate: cleanly resolvable cluster
			}
			cand.Add(rel.Tuple{
				rel.Int(int64(c)),
				rel.String(fmt.Sprintf("name%d_%d", c, a)),
				rel.Float(w),
			})
		}
	}
	db.AddComplete("Candidates", cand)
	return db
}

// SensorReadings builds the sensor scenario: Readings(Sensor, Epoch,
// Value) where each reading is present with a per-reading confidence
// (sensor noise), as a tuple-independent U-relation.
func SensorReadings(rng *rand.Rand, sensors, epochs int) *urel.Database {
	db := urel.NewDatabase()
	r := urel.NewRelation(rel.NewSchema("Sensor", "Epoch", "Value"))
	ps := make([]float64, 0, sensors*epochs)
	for s := 0; s < sensors; s++ {
		reliability := 0.3 + 0.65*rng.Float64()
		for e := 0; e < epochs; e++ {
			ps = append(ps, reliability*(0.8+0.2*rng.Float64()))
			r.Add(vars.MustAssignment(vars.Binding{Var: vars.Var(s*epochs + e), Alt: 0}), rel.Tuple{
				rel.Int(int64(s)),
				rel.Int(int64(e)),
				rel.Float(20 + 5*rng.NormFloat64()),
			})
		}
	}
	registerBinary(db.Vars, len(ps), func(i int) float64 { return ps[i] },
		func(i int) uint64 { return vars.RowID("Readings", i/epochs, i%epochs) },
		func(i int) string { return "s" + strconv.Itoa(i/epochs) + "_e" + strconv.Itoa(i%epochs) }, "ok", "drop")
	db.AddURelation("Readings", r, false)
	return db
}
