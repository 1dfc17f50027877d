package main

import (
	"fmt"
	"math/rand"

	"repro/pdb"
)

// opKind selects the evaluation path of one op and the rule its result is
// checked by.
type opKind string

const (
	kindExact opKind = "exact" // EvalExact; rows must equal the oracle's
	kindConf  opKind = "conf"  // Eval of a conf query under a (ε, δ) budget
	kindSigma opKind = "sigma" // Eval of a σ̂ query (Theorem 6.7 doubling loop)
)

// surface is the public entry point a workload's clients call.
type surface string

const (
	surfaceLib     surface = "lib"     // pdb.DB.Prepare + Query.Eval/EvalExact
	surfaceHTTP    surface = "http"    // POST /v1/query on internal/server
	surfaceCluster surface = "cluster" // pdb.Engine over loopback shards; only the traced pass calls it
)

// op is one unit of client work: a UA program and the options it is
// evaluated with. The program under test sees nothing else of an op.
type op struct {
	Kind    opKind
	Program string
	// Param indexes the workload's parameter pool and selects the oracle
	// the result is checked against.
	Param int
	// Tau is the σ̂ threshold of a kindSigma op.
	Tau     float64
	Seed    int64
	Workers int
	// Eps, Delta are the conf budget of a kindConf op and (ε₀, δ) of a
	// kindSigma op.
	Eps, Delta float64
	Strata     int
	// Hot marks a serve-mixed op whose (program, seed) pair was evaluated
	// during warm-up: the shared engine must answer it without sampling.
	Hot bool
}

// class names the ops that do the same work up to their sampling seed: same
// evaluation path, same program. Latencies are compared within a class.
func (o op) class() string {
	if o.Hot {
		return fmt.Sprintf("hot/%d", o.Param)
	}
	return fmt.Sprintf("%s/%d", o.Kind, o.Param)
}

// options renders the op as pdb evaluation options.
func (o op) options() []pdb.Option {
	opts := []pdb.Option{pdb.WithWorkers(o.Workers)}
	switch o.Kind {
	case kindConf:
		opts = append(opts, pdb.WithConfBudget(o.Eps, o.Delta), pdb.WithSeed(o.Seed))
	case kindSigma:
		opts = append(opts, pdb.WithEpsilon(o.Eps), pdb.WithDelta(o.Delta),
			pdb.WithStrata(o.Strata), pdb.WithSeed(o.Seed))
	}
	return opts
}

// workload is one benchmark workload: a corpus, a client surface, and a
// seeded op stream. Corpus seeds are fixed per workload, not derived from
// -seed: the generators draw lineage shape from their seed, and on
// sensor-dedup that moves the Chernoff budget of one op between 1.6·10⁵ and
// 2.9·10⁵ trials — a spread that would drown every regression bound. -seed
// drives what a client may vary: parameter order, the hot/fresh/exact mix,
// and every sampling seed.
type workload struct {
	Name string
	Why  string
	// Scenario names the internal/workload corpus generator; Rows and
	// CorpusSeed are its arguments.
	Scenario   string
	Rows       int64
	CorpusSeed int64
	Surface    surface
	// Params is the pool of query parameters ops draw from.
	Params []float64
	// program renders the UA program of an op over parameter p; oracle
	// renders the program whose exact result the op is checked against
	// (the same program for every parameter on σ̂ workloads, where the
	// checker needs confidences rather than the filtered set).
	program func(p float64) string
	oracle  func(p float64) string
	// next builds op i of a stream: stream 0 is the measured client's,
	// negative streams are the throw-away ones of warm-up and tracing.
	next func(w *workload, seed int64, stream, i int) op
}

const (
	entityJoin = `R := project[Cluster,Name](repairkey[Cluster @ Weight](Candidates)); ` +
		`conf(project[Cluster,Name](join(R, select[Amount >= %g](Orders))))`
	// hotEpochs binds H (hot readings after deduplication) and N (H shifted
	// one epoch back); join(H, N) pairs consecutive hot epochs, so the
	// clauses of one sensor chain-share repair-key variables and the
	// lineage does not factor.
	hotEpochs = `D := project[Sensor,Epoch,Value](repairkey[Sensor,Epoch @ Conf](Readings)); ` +
		`H := project[Sensor,Epoch](select[Value >= 25](D)); ` +
		`N := project[Sensor, Epoch - 1 as Epoch](H); `
	hotConf    = hotEpochs + `conf(project[Sensor](join(H, N)))`
	hotSigma   = hotEpochs + `aselect[p1 >= %g over conf[Sensor]](project[Sensor](join(H, N)))`
	whatIfConf = `conf(project[Part](select[Cost >= %g](repairkey[Part @ Weight](Parts))))`
)

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func sprintf1(format string) func(float64) string {
	return func(p float64) string { return fmt.Sprintf(format, p) }
}

func constant(s string) func(float64) string {
	return func(float64) string { return s }
}

// workloads returns the benchmark's workloads in report order.
func workloads() []*workload {
	return []*workload{
		{
			Name: "exact-join",
			Why: "exact conf over a repair-key join: parser, algebra, urel, dnf and pdb.Result " +
				"do all the work and the sampler none, so a sampler change must not move it",
			Scenario: "entity-resolution", Rows: 1000, CorpusSeed: 1,
			Surface: surfaceLib,
			Params:  linspace(400, 600, 5),
			program: sprintf1(entityJoin), oracle: sprintf1(entityJoin),
			next: func(w *workload, seed int64, stream, i int) op {
				return exactOp(w, balanced(seed, stream, i, len(w.Params)))
			},
		},
		{
			Name: "conf-flat",
			Why: "unfactorable lineage sampled to its full Chernoff budget: the karpluby kernel " +
				"is most of the op, so a kernel rewrite must show here",
			Scenario: "sensor-dedup", Rows: 70, CorpusSeed: 1,
			Surface: surfaceLib,
			Params:  []float64{0},
			program: constant(hotConf), oracle: constant(hotConf),
			next: func(w *workload, seed int64, stream, i int) op {
				return op{Kind: kindConf, Program: hotConf, Seed: freshSeed(seed, stream, i),
					Workers: 1, Eps: 0.1, Delta: 0.1}
			},
		},
		{
			Name: "sigma-strat",
			Why: "the paper's σ̂ operator: the doubling loop's restarts, predapprox margins, factoring " +
				"and strata planning outweigh the few trials drawn, so per-restart overhead shows here",
			Scenario: "sensor-dedup", Rows: 70, CorpusSeed: 1,
			Surface: surfaceLib,
			Params:  linspace(0.3, 0.7, 5),
			program: sprintf1(hotSigma), oracle: constant(hotConf),
			next: func(w *workload, seed int64, stream, i int) op {
				p := balanced(seed, stream, i, len(w.Params))
				return op{Kind: kindSigma, Program: w.program(w.Params[p]), Param: p, Tau: w.Params[p],
					Seed: freshSeed(seed, stream, i), Workers: 1, Eps: 0.1, Delta: 0.1, Strata: 8}
			},
		},
		{
			Name: "serve-mixed",
			Why: "one keep-alive HTTP client on a shared engine, 60% cached / 25% fresh / 15% exact: " +
				"request decode, core.Cache replay beside new sampling, NDJSON encode",
			Scenario: "repair-whatif", Rows: 500, CorpusSeed: 1,
			Surface: surfaceHTTP,
			Params:  linspace(72, 90, 4),
			program: sprintf1(whatIfConf), oracle: sprintf1(whatIfConf),
			next: serveMixedOp,
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// mix hashes its arguments to 63 well-spread bits (splitmix64 finalizer per
// word), so op streams of different seeds, streams and positions are
// unrelated.
func mix(words ...int64) int64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, w := range words {
		h += uint64(w) + 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// freshSeed is a sampling seed no other op of the run shares, so neither an
// engine cache nor a shard's chunk cache can replay it. Never 0: the HTTP
// surface reads 0 as "use the default seed".
func freshSeed(seed int64, stream, i int) int64 {
	return mix(seed, int64(stream), int64(i))%(1<<53-1) + 1
}

// balanced picks op i's index into a pool of n by walking a fresh seeded
// permutation every n ops: any window of a run uses the pool evenly, so the
// cost of a run does not depend on which parameters its seed favours.
func balanced(seed int64, stream, i, n int) int {
	perm := rand.New(rand.NewSource(mix(seed, int64(stream), int64(i/n)))).Perm(n)
	return perm[i%n]
}

const (
	mixBlock    = 20 // ops per mix block: 12 hot, 5 fresh, 3 exact
	mixHotOps   = 12
	mixFreshOps = 5
)

// Streams the serve-mixed parameter walks draw from, apart from the
// client's own.
const (
	streamHot    = -1 // hot pairs: the same for every stream of a run
	streamWarmUp = -2 // warmUpOps, always with seed 0
	streamServer = -3 // the traced pass's server rung
)

// exactOp is the exact evaluation of the workload's program on parameter p.
func exactOp(w *workload, p int) op {
	return op{Kind: kindExact, Program: w.program(w.Params[p]), Param: p, Workers: 1}
}

// hotOp is the run's hot op on parameter p: a fixed sampling seed, evaluated
// during warm-up so that the shared engine's cache answers it.
func hotOp(w *workload, seed int64, p int) op {
	return op{Kind: kindConf, Program: w.program(w.Params[p]), Param: p, Seed: freshSeed(seed, streamHot, p),
		Workers: 1, Eps: 0.1, Delta: 0.1, Hot: true}
}

// serveMixedOp builds the serve-mixed stream: every block of 20 ops holds
// exactly 12 hot, 5 fresh and 3 exact ops in seeded order, and each of the
// three kinds walks the parameter pool evenly (balanced), so every run
// sends the same multiset of ops up to a remainder.
func serveMixedOp(w *workload, seed int64, stream, i int) op {
	block, k := i/mixBlock, i%mixBlock
	slot := rand.New(rand.NewSource(mix(seed, int64(stream), int64(block)))).Perm(mixBlock)[k]
	n := len(w.Params)
	switch {
	case slot < mixHotOps:
		return hotOp(w, seed, balanced(mix(seed, 1), stream, block*mixHotOps+slot, n))
	case slot < mixHotOps+mixFreshOps:
		p := balanced(mix(seed, 2), stream, block*mixFreshOps+slot-mixHotOps, n)
		return op{Kind: kindConf, Program: w.program(w.Params[p]), Param: p,
			Seed: freshSeed(seed, stream, i), Workers: 1, Eps: 0.1, Delta: 0.1}
	default:
		p := balanced(mix(seed, 3), stream, block*(mixBlock-mixHotOps-mixFreshOps)+slot-mixHotOps-mixFreshOps, n)
		return exactOp(w, p)
	}
}

// minWarmUpOps is the least number of ops a set-up warms a library workload
// up with.
const minWarmUpOps = 4

// warmUpOps returns the ops a set-up runs before measurement: the same
// classes in the same order whatever the seed, so that set-up costs the same
// under every seed. A library workload walks its parameter pool once (and
// runs at least minWarmUpOps ops), with sampling seeds of the warm-up
// stream of seed 0, which no measured op shares. serve-mixed runs, per
// parameter, the run's hot op — this evaluation is the one that samples, the
// work of a fresh op, and fills the shared engine's cache — then the hot op
// again, answered from the cache, then the exact op.
func warmUpOps(w *workload, seed int64) []op {
	var ops []op
	if w.Surface == surfaceHTTP {
		for p := range w.Params {
			fill := hotOp(w, seed, p)
			fill.Hot = false
			ops = append(ops, fill, hotOp(w, seed, p), exactOp(w, p))
		}
		return ops
	}
	for i := 0; i < max(minWarmUpOps, len(w.Params)); i++ {
		ops = append(ops, w.next(w, 0, streamWarmUp, i))
	}
	return ops
}
