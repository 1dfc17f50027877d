package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/dnf"
	"repro/internal/expr"
	"repro/internal/karpluby"
	"repro/internal/parser"
	"repro/internal/rel"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/urel"
	"repro/internal/vars"
	"repro/pdb"
)

// The traced pass executes each op as a ladder: one call into every
// layer's public functions, bottom-up, each wrapped in a span. Rungs redo
// the work of the rungs beneath them (core.eval contains an algebra
// evaluation, pdb.eval contains a core evaluation, …), so a layer's self
// time is its rung minus the rung beneath — see layerMetrics.
//
//	store.read           store.ReadRelation of every corpus file
//	parser.parse         parser.Parse
//	algebra.eval         URelEvaluator.Eval of the plan under the outermost conf/σ̂
//	urel.lineage         urel.Lineage of that result
//	dnf.confidence       dnf.Confidence per lineage group
//	dnf.factor           dnf.Factor per lineage group
//	karpluby.build       karpluby.NewEstimator per multi-clause group      (sampled ops)
//	karpluby.trials      TrialsFor(ε, δ, |F|) trials per group, 1 goroutine (sampled ops)
//	karpluby.plan_strata karpluby.PlanStrata per factoring residue         (strata ops)
//	karpluby.adaptive    karpluby.EstimateAdaptive per residue             (strata ops)
//	core.eval            core.Engine.EvalApprox (EvalExact) cold, the op's 1 worker
//	core.warm_eval       the same again on the same cache and seed         (sampled ops)
//	core.eval_pw         cold again on P workers, GOMAXPROCS raised to P    (sampled ops)
//	pdb.query            pdb.prepare + pdb.eval + pdb.iterate
//	server.request       POST /v1/query to internal/server
//	cluster.query        Prepare + Eval + iterate on the clustered engine
type ladder struct {
	e  *env
	tr *tracer
}

// sink keeps results of measured calls alive so the compiler cannot drop
// the calls.
var sink float64

// coreOptions renders the op as core.Options the way pdb does (its
// defaults are ε₀ = δ = 0.05, seed 1).
func (o op) coreOptions(workers int) core.Options {
	opts := core.Options{Eps0: 0.05, Delta: 0.05, Seed: 1, Workers: workers}
	switch o.Kind {
	case kindConf:
		opts.ConfEps, opts.ConfDelta, opts.Seed = o.Eps, o.Delta, o.Seed
	case kindSigma:
		opts.Eps0, opts.Delta, opts.Strata, opts.Seed = o.Eps, o.Delta, o.Strata, o.Seed
	}
	return opts
}

// lineageInput strips the outermost conf or σ̂ off plan, keeping the
// let-bindings above it: the result is the sub-plan whose lineage that
// operator computes confidences of.
func lineageInput(q algebra.Query) (algebra.Query, error) {
	switch n := q.(type) {
	case algebra.Let:
		in, err := lineageInput(n.In)
		return algebra.Let{Name: n.Name, Def: n.Def, In: in}, err
	case algebra.Conf:
		return n.In, nil
	case algebra.ApproxSelect:
		if len(n.Args) != 1 {
			return nil, fmt.Errorf("ladder: σ̂ with %d conf arguments", len(n.Args))
		}
		targets := make([]expr.Target, len(n.Args[0].Attrs))
		for i, a := range n.Args[0].Attrs {
			targets[i] = expr.Keep(a)
		}
		return algebra.Project{In: n.In, Targets: targets}, nil
	default:
		return nil, fmt.Errorf("ladder: outermost operator is %T, want conf or σ̂", q)
	}
}

// climb executes op number i as the ladder. It returns an error only when
// a rung cannot run at all; a wrong or refused answer is reported as a
// failed op.
func (l *ladder) climb(ctx context.Context, i int, o op) (failed error, err error) {
	tr, e := l.tr, l.e
	root := tr.begin(0, i, "op")
	defer func() {
		counts := map[string]float64{"param": float64(o.Param)}
		if o.Hot {
			counts["hot"] = 1
		}
		tr.end(root, counts)
		tr.spans[root-1].Class = o.class()
	}()
	rung := func(name string, f func() (map[string]float64, error)) error {
		return tr.call(root, i, name, f)
	}
	sampled := o.Kind != kindExact

	rels := map[string]*rel.Relation{}
	err = rung("store.read", func() (map[string]float64, error) {
		var bytes, tuples float64
		for name, path := range e.sources {
			r, err := store.ReadRelation(path, rel.NewInterner())
			if err != nil {
				return nil, err
			}
			st, err := os.Stat(path)
			if err != nil {
				return nil, err
			}
			rels[name] = r
			bytes += float64(st.Size())
			tuples += float64(r.Len())
		}
		return map[string]float64{"bytes": bytes, "tuples": tuples}, nil
	})
	if err != nil {
		return nil, err
	}
	udb := urel.NewDatabase()
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	sort.Strings(names) // pdb.Open's load order
	for _, name := range names {
		udb.AddComplete(name, rels[name])
	}

	var plan algebra.Query
	err = rung("parser.parse", func() (map[string]float64, error) {
		var err error
		plan, err = parser.Parse(o.Program)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	sub, err := lineageInput(plan)
	if err != nil {
		return nil, err
	}

	var lineageRel *urel.Relation
	var table *vars.Table
	err = rung("algebra.eval", func() (map[string]float64, error) {
		ev := algebra.NewParallelURelEvaluator(udb, sched.New(o.Workers))
		res, err := ev.Eval(sub)
		if err != nil {
			return nil, err
		}
		lineageRel, table = res.Rel, ev.DB().Vars
		var bytes int64
		for _, s := range res.Ops {
			bytes += s.Bytes
		}
		return map[string]float64{
			"tuples_out":         float64(res.Rel.Len()),
			"join_tuples_out":    float64(res.Ops["join"].TuplesOut),
			"materialized_bytes": float64(bytes),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	var groups []urel.TupleConf
	_ = rung("urel.lineage", func() (map[string]float64, error) {
		groups = urel.Lineage(lineageRel)
		clauses := 0
		for _, g := range groups {
			clauses += len(g.F)
		}
		return map[string]float64{"groups": float64(len(groups)), "clauses": float64(clauses)}, nil
	})
	_ = rung("dnf.confidence", func() (map[string]float64, error) {
		for _, g := range groups {
			sink += dnf.Confidence(g.F, table)
		}
		return nil, nil
	})
	var residues []dnf.F
	_ = rung("dnf.factor", func() (map[string]float64, error) {
		var clauses, exact int
		for _, g := range groups {
			f := dnf.Factor(g.F, table, dnf.DefaultFactorLimits)
			clauses += len(g.F)
			exact += len(g.F) - len(f.Residue)
			if len(f.Residue) > 0 {
				residues = append(residues, f.Residue)
			}
		}
		return map[string]float64{"clauses": float64(clauses), "exact_clauses": float64(exact)}, nil
	})

	if sampled {
		var ests []*karpluby.Estimator
		err = rung("karpluby.build", func() (map[string]float64, error) {
			for gi, g := range groups {
				if len(g.F) < 2 {
					continue // the engine takes a single clause's weight as exact
				}
				est, err := karpluby.NewEstimator(g.F, table, rand.New(rand.NewSource(mix(o.Seed, int64(gi)))))
				if err != nil {
					return nil, err
				}
				ests = append(ests, est)
			}
			return map[string]float64{"estimators": float64(len(ests))}, nil
		})
		if err != nil {
			return nil, err
		}
		_ = rung("karpluby.trials", func() (map[string]float64, error) {
			var trials int64
			for _, est := range ests {
				n := karpluby.TrialsFor(o.Eps, o.Delta, est.ClauseCount())
				est.Add(int(n))
				trials += n
				sink += est.Estimate()
			}
			return map[string]float64{"trials": float64(trials)}, nil
		})
	}
	if o.Strata > 0 {
		_ = rung("karpluby.plan_strata", func() (map[string]float64, error) {
			strata := 0
			for _, f := range residues {
				strata += len(karpluby.PlanStrata(f, table, o.Strata))
			}
			return map[string]float64{"strata": float64(strata)}, nil
		})
		err = rung("karpluby.adaptive", func() (map[string]float64, error) {
			var sampledTrials, early int64
			for ri, f := range residues {
				r, err := karpluby.EstimateAdaptive(f, table, karpluby.AdaptiveOptions{
					MaxStrata: o.Strata, Eps: o.Eps, Delta: o.Delta, Seed: mix(o.Seed, int64(ri))})
				if err != nil {
					return nil, err
				}
				sampledTrials += r.Sampled
				if r.Sampled < r.Budget {
					early++
				}
				sink += r.P
			}
			return map[string]float64{"tasks": float64(len(residues)), "early": float64(early),
				"trials": float64(sampledTrials)}, nil
		})
		if err != nil {
			return nil, err
		}
	}

	coreEval := func(eng *core.Engine) func() (map[string]float64, error) {
		return func() (map[string]float64, error) {
			if !sampled {
				res, err := eng.EvalExactContext(ctx, plan)
				if err != nil {
					return nil, err
				}
				return map[string]float64{"rows": float64(res.Rel.Len())}, nil
			}
			res, err := eng.EvalApproxContext(ctx, plan)
			if err != nil {
				return nil, err
			}
			st := res.Stats
			return map[string]float64{
				"rows": float64(res.Rel.Len()), "restarts": float64(st.Restarts),
				"trials": float64(st.EstimatorTrials), "reused": float64(st.ReusedTrials),
				"cache_hits": float64(st.CacheHits), "decisions": float64(st.Decisions),
				"singular_drops": float64(st.SingularDrops), "early_stops": float64(st.EarlyStops),
			}, nil
		}
	}
	eng := core.NewEngine(udb, o.coreOptions(o.Workers))
	eng.SetCache(core.NewCache(1 << 12))
	if err := rung("core.eval", coreEval(eng)); err != nil {
		return nil, err
	}
	if sampled {
		if err := rung("core.warm_eval", coreEval(eng)); err != nil {
			return nil, err
		}
		runtime.GOMAXPROCS(e.procs)
		err := rung("core.eval_pw", coreEval(core.NewEngine(udb, o.coreOptions(e.procs))))
		runtime.GOMAXPROCS(gomaxprocs)
		if err != nil {
			return nil, err
		}
	}

	// pdb.query runs on what the workload's surface sits on: the server's
	// shared engine for the http workload (so that a hot op is hot here
	// too), a bare database otherwise.
	prepare := e.db.Prepare
	if e.w.Surface == surfaceHTTP {
		prepare = e.serveEng.Prepare
	}
	pq := tr.begin(root, i, "pdb.query")
	var q *pdb.Query
	err = tr.call(pq, i, "pdb.prepare", func() (map[string]float64, error) {
		var err error
		q, err = prepare(o.Program)
		return nil, err
	})
	var res *pdb.Result
	if err == nil {
		err = tr.call(pq, i, "pdb.eval", func() (map[string]float64, error) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			var err error
			res, err = evaluate(ctx, q, o)
			runtime.ReadMemStats(&m1)
			return map[string]float64{"alloc_bytes": float64(m1.TotalAlloc - m0.TotalAlloc)}, err
		})
	}
	var out opResult
	if err == nil {
		_ = tr.call(pq, i, "pdb.iterate", func() (map[string]float64, error) {
			out = collect(res)
			return map[string]float64{"rows": float64(len(out.Rows))}, nil
		})
	}
	tr.end(pq, nil)
	if err != nil {
		return nil, err
	}
	failed = check(o, out, e.oracles[o.Param])

	// The server rung of a sampled op takes a seed of its own: pdb.query
	// may just have cached this op's seed on the shared engine, and a
	// fresh op must sample here as it does in the measured phase.
	so := o
	if sampled && !o.Hot {
		so.Seed = freshSeed(o.Seed, streamServer, i)
	}
	_ = rung("server.request", func() (map[string]float64, error) {
		before := e.serveEng.Stats()
		t0 := time.Now()
		var ttfb time.Duration
		out, err := e.post(ctx, so, func() { ttfb = time.Since(t0) })
		after := e.serveEng.Stats()
		counts := map[string]float64{
			"ttfb_ns": float64(ttfb), "bytes": float64(out.Bytes), "rows": float64(len(out.Rows)),
			"cache_hits":   float64(after.CacheHits - before.CacheHits),
			"cache_misses": float64(after.CacheMisses - before.CacheMisses),
		}
		if err == nil {
			err = check(so, out, e.oracles[so.Param])
		} else {
			counts["rejected"] = 1
		}
		if err != nil && failed == nil {
			failed = fmt.Errorf("server: %w", err)
		}
		return counts, nil
	})

	_ = rung("cluster.query", func() (map[string]float64, error) {
		before := e.clusterEng.ClusterStats()
		sampled0, reused0 := e.shardTrials()
		co := o
		co.Hot = false // the clustered engine has a cache of its own, never warmed
		out, err := e.exec(ctx, co, surfaceCluster)
		if err == nil {
			err = check(co, out, e.oracles[co.Param])
		}
		if err != nil && failed == nil {
			failed = fmt.Errorf("cluster: %w", err)
		}
		after := e.clusterEng.ClusterStats()
		sampled1, reused1 := e.shardTrials()
		return map[string]float64{
			"batches":        float64(after.Batches - before.Batches),
			"merge_ns":       float64(after.MergeNanos - before.MergeNanos),
			"hedges":         float64(after.Hedges - before.Hedges),
			"failovers":      float64(after.Failovers - before.Failovers),
			"shard_sampled":  float64(sampled1 - sampled0),
			"shard_reused":   float64(reused1 - reused0),
			"sampled_trials": float64(out.SampledTrials),
		}, nil
	})
	return failed, nil
}

// shardTrials sums the trials the shards have sampled and have served from
// their chunk caches so far.
func (e *env) shardTrials() (sampled, reused int64) {
	for _, sh := range e.shards {
		st := sh.Stats()
		sampled, reused = sampled+st.TrialsSampled, reused+st.TrialsReused
	}
	return sampled, reused
}
