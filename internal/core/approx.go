package core

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/expr"
	"repro/internal/karpluby"
	"repro/internal/provenance"
	"repro/internal/rel"
	"repro/internal/urel"
)

// Conf implements conf_{ε,δ} (Section 4 / Corollary 4.3): the output
// is a complete relation with an estimated P column; per-tuple membership
// bounds are inherited from the input (the P value itself carries the
// (ε,δ) relative-error guarantee). Every tuple becomes an estimation task
// keyed by its lineage content, so its PRNG streams — and hence its
// estimate — depend only on Options.Seed, not on the worker count or on
// other tuples, and tuples sharing a clause set — within this operator,
// elsewhere in the plan, or in an earlier query against a shared engine
// cache — share one estimation.
//
// By default each task spends the paper's Chernoff budget on the flat
// estimator. With Options.Strata (or a threshold/top-k option) set, tasks
// are stratified and adaptive instead: factoring pre-pass, per-stratum
// Neyman waves, empirical-Bernstein stopping below the same budget, and
// optional threshold/top-k early stopping. Threshold/top-k never filter
// the output: every tuple still appears with its estimate; the options
// only govern how much sampling effort a tuple receives once its decision
// is settled.
func (run *evalRun) Conf(ev *algebra.URelEvaluator, in algebra.URelResult, pcol string) (algebra.URelResult, error) {
	if in.Rel.Schema().Has(pcol) {
		return algebra.URelResult{}, fmt.Errorf("core: conf column %q already in schema %v", pcol, in.Rel.Schema())
	}
	opts := run.engine.opts
	eps, delta := opts.confEps(), opts.confDelta()
	maxStrata := 0
	if opts.stratifiedConf() {
		maxStrata = opts.strataCount()
	}
	// Stream the lineage groups: one pass builds the estimation tasks and
	// keeps only (row, value) per distinct tuple — the clause sets flow
	// straight into the estimators instead of surviving in a second
	// materialized []TupleConf.
	var tuples []rowConf
	var tasks []*task
	run.batch = make(map[contentKey]*task)
	budget := func(clauses int) int64 { return karpluby.TrialsFor(eps, delta, clauses) }
	for tc := range ev.Exec().LineageSeq(in.Rel) {
		// The singleton shortcut is always on here: a single clause's
		// weight is its exact probability (the estimator would return it
		// deterministically anyway).
		cv, t, err := run.newTask(tc.F, budget, true, maxStrata)
		if err != nil {
			return algebra.URelResult{}, err
		}
		if t != nil {
			tasks = append(tasks, t)
		}
		tuples = append(tuples, rowConf{row: tc.Row, cv: cv})
	}
	tgt := target{adaptive: maxStrata > 0, eps: eps, delta: delta}
	if opts.ConfThreshold > 0 || opts.ConfTopK > 0 {
		all := make([]*confValue, len(tuples))
		for i, t := range tuples {
			all[i] = t.cv
		}
		tgt.decided = confDecider(all, opts.ConfThreshold, opts.ConfTopK, delta)
	}
	if err := run.runEstimates(tasks, tgt); err != nil {
		return algebra.URelResult{}, err
	}
	return confResult(in, pcol, tuples), nil
}

// rowConf is one distinct data tuple of a conf input with its confidence.
type rowConf struct {
	row rel.Tuple
	cv  *confValue
}

// confResult assembles a conf operator's output from the estimated
// tuples: in's rows extended by the P column, each inheriting the bound of
// the input tuple it extends.
func confResult(in algebra.URelResult, pcol string, tuples []rowConf) algebra.URelResult {
	out := urel.NewRelation(rel.NewSchema(append(in.Rel.Schema().Clone(), pcol)...))
	for _, t := range tuples {
		outRow := make(rel.Tuple, len(t.row)+1)
		copy(outRow, t.row)
		outRow[len(t.row)] = rel.Float(t.cv.estimate())
		out.AddOwned(nil, outRow)
	}
	return algebra.URelResult{Rel: out, Complete: true}.Bounded(func(row rel.Tuple, _ string) (float64, bool) {
		return in.BoundOf(row[:len(row)-1])
	}, in)
}

// confDecider builds the wave-boundary early-stopping hook for threshold
// and top-k conf queries. A task settles when every tuple sharing its
// clause set is decided under every enabled criterion:
//
//   - threshold τ: the tuple's confidence interval at level delta lies
//     entirely above or entirely below τ;
//   - top-k: interval separation against the other tuples of the same
//     operator — the tuple is definitely in the top k (at most k−1 other
//     intervals reach above its lower bound) or definitely out (at least
//     k other lower bounds lie at or above its upper bound).
//
// The hook reads only merged counts and is called only at wave
// boundaries, so its verdicts are deterministic for any worker count.
func confDecider(all []*confValue, tau float64, topk int, delta float64) func(*task) bool {
	decidedCV := func(cv *confValue) bool {
		lo, hi := cv.bounds(delta)
		if tau > 0 && !(lo > tau || hi < tau) {
			return false
		}
		if topk > 0 {
			above, reach := 0, 0
			for _, o := range all {
				if o == cv {
					continue
				}
				olo, ohi := o.bounds(delta)
				if ohi > lo {
					reach++ // could still outrank cv
				}
				if olo >= hi {
					above++ // definitely outranks cv
				}
			}
			in := reach <= topk-1
			out := above >= topk
			if !in && !out {
				return false
			}
		}
		return true
	}
	return func(t *task) bool {
		if len(t.cvs) == 0 {
			return false
		}
		for _, cv := range t.cvs {
			if !decidedCV(cv) {
				return false
			}
		}
		return true
	}
}

// confValue is one approximable conf[Āᵢ] term of a σ̂ group: either an
// exact probability (empty or singleton lineage), or a task's estimate of
// the sampled clause set plus the exactly-computed part of the lineage
// (combined as p = exactPart + (1−exactPart)·p_R, see dnf.Factor; 0 for a
// flat task, which factors nothing).
type confValue struct {
	exact     bool
	value     float64
	t         *task   // nil when exact
	exactPart float64 // exact factored part
	provErr   float64 // Σ µ over the input tuples in this term's provenance
	singular  bool
}

func (cv *confValue) estimate() float64 {
	if cv.exact {
		return cv.value
	}
	est := cv.t.est
	if cv.t.flat() {
		if est.Trials() == 0 {
			return est.Estimate()
		}
		// The flat estimator's p̂ = X·M/m, in this operation order and
		// unclamped (M may exceed 1).
		return float64(est.Hits()) * est.M() / float64(est.Trials())
	}
	r := math.Min(1, math.Max(0, est.Estimate()))
	return cv.exactPart + (1-cv.exactPart)*r
}

// delta returns the per-value error bound δᵢ(ε) after the run's rounds:
// the paper's Chernoff bound for a flat task, the empirical-Bernstein bound
// for a stratified one — where the residue's relative-error bound carries
// to the combined value unchanged (factor.go), so no adjustment is needed.
func (cv *confValue) delta(eps float64) float64 {
	switch {
	case cv.exact:
		return 0
	case cv.t.flat():
		return karpluby.DeltaBound(eps, cv.t.est.Trials(), cv.t.est.ClauseCount())
	}
	return cv.t.est.Delta(eps)
}

// bounds returns a 1−delta confidence interval for the combined value,
// used by threshold/top-k early stopping (stratified tasks only).
func (cv *confValue) bounds(delta float64) (lo, hi float64) {
	if cv.exact {
		return cv.value, cv.value
	}
	lo, hi = cv.t.est.Bounds(delta)
	e := cv.exactPart
	return e + (1-e)*lo, e + (1-e)*hi
}

// ApproxSelect implements σ̂ under approximation (Definition 6.2): for
// every joined combination of the conf arguments' possible tuples, the
// clause sets are estimated for `rounds` Karp–Luby rounds, the predicate
// is decided on the estimates with ε = max(ε₀, ε_ψ(p̂)), and the
// membership error of an emitted tuple is bounded per Lemma 6.4(2) by
// Σᵢ δᵢ(ε) plus the provenance error of the conf inputs.
func (run *evalRun) ApproxSelect(ev *algebra.URelEvaluator, in algebra.URelResult, n algebra.ApproxSelect) (algebra.URelResult, error) {
	roundBudget := func(clauses int) int64 { return run.rounds * int64(clauses) }
	var tasks []*task
	// One batch spans every argument: content-equal lineages across (and
	// within) arguments share a single estimation task. With Strata set,
	// σ̂ tasks are stratified (factoring pre-pass + Neyman allocation of
	// the same per-pass trial budget).
	run.batch = make(map[contentKey]*task)
	// Build each argument's projected lineage with provenance errors.
	argTuples := make([][]argTuple, len(n.Args))
	argSchemas := make([]rel.Schema, len(n.Args))
	for i, a := range n.Args {
		for _, attr := range a.Attrs {
			if !in.Rel.Schema().Has(attr) {
				return algebra.URelResult{}, fmt.Errorf("core: σ̂ conf attribute %q not in schema %v", attr, in.Rel.Schema())
			}
		}
		targets := keepTargets(a.Attrs)
		proj := ev.Exec().Project(in.Rel, targets)
		// Provenance error of each projected tuple: the fan-in sum over
		// the distinct input data tuples projecting onto it.
		var provErr provenance.ErrMap
		var provSing map[string]bool
		if !in.Reliable() {
			provErr, provSing = algebra.ProjectBounds(in, targets)
		}
		var tuples []argTuple
		for tc := range ev.Exec().LineageSeq(proj) {
			// The balanced refinement scheme of the end of Section 5:
			// run.rounds rounds of |F| trials each. NoSingletonShortcut
			// forces even single-clause lineages through the estimator
			// (ablation knob).
			cv, t, err := run.newTask(tc.F, roundBudget,
				!run.engine.opts.NoSingletonShortcut, run.engine.opts.Strata)
			if err != nil {
				return algebra.URelResult{}, err
			}
			if t != nil {
				tasks = append(tasks, t)
			}
			if provErr != nil {
				k := tc.Row.Key()
				cv.provErr, cv.singular = provErr[k], provSing[k]
			}
			tuples = append(tuples, argTuple{row: tc.Row, cv: cv, attr: proj.Schema()})
		}
		argTuples[i] = tuples
		argSchemas[i] = proj.Schema()
	}
	// Spend every argument tuple's trial budget in one batch: the
	// scheduler sees all (tuple, chunk) units at once and keeps every
	// worker busy across argument boundaries.
	if err := run.runEstimates(tasks, target{}); err != nil {
		return algebra.URelResult{}, err
	}

	// Output schema: union of argument attributes in order of first
	// appearance, then P1..Pk.
	var outAttrs []string
	seenAttr := map[string]bool{}
	for _, s := range argSchemas {
		for _, a := range s {
			if !seenAttr[a] {
				seenAttr[a] = true
				outAttrs = append(outAttrs, a)
			}
		}
	}
	outSchema := make(rel.Schema, 0, len(outAttrs)+len(n.Args))
	outSchema = append(outSchema, outAttrs...)
	for i := range n.Args {
		outSchema = append(outSchema, algebra.PColName(i))
	}
	out := urel.NewRelation(rel.NewSchema(outSchema...))
	errs := provenance.Reliable()
	sing := map[string]bool{}

	// Enumerate natural-join combinations of the argument tuples.
	combo := make([]argTuple, len(n.Args))
	var emit func(i int, bound map[string]rel.Value) error
	emit = func(i int, bound map[string]rel.Value) error {
		if i == len(n.Args) {
			return run.decideCombo(n, combo, outAttrs, bound, out, errs, sing)
		}
		for _, at := range argTuples[i] {
			merged, ok := mergeBindings(bound, at.attr, at.row)
			if !ok {
				continue
			}
			combo[i] = at
			if err := emit(i+1, merged); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(0, map[string]rel.Value{}); err != nil {
		return algebra.URelResult{}, err
	}
	return algebra.URelResult{Rel: out, Complete: true, Errs: errs, Singular: sing}, nil
}

// argTuple is one possible tuple of a σ̂ conf argument together with its
// (approximable) confidence value.
type argTuple struct {
	row  rel.Tuple
	cv   *confValue
	attr rel.Schema
}

// keepTargets builds identity projection targets for the named attributes.
func keepTargets(attrs []string) []expr.Target {
	out := make([]expr.Target, len(attrs))
	for i, a := range attrs {
		out[i] = expr.Keep(a)
	}
	return out
}

// mergeBindings extends the attribute bindings with a tuple's values,
// failing when a shared attribute disagrees (natural-join semantics).
func mergeBindings(bound map[string]rel.Value, schema rel.Schema, row rel.Tuple) (map[string]rel.Value, bool) {
	merged := make(map[string]rel.Value, len(bound)+len(schema))
	for k, v := range bound {
		merged[k] = v
	}
	for i, a := range schema {
		if prev, ok := merged[a]; ok {
			if !rel.Equal(prev, row[i]) {
				return nil, false
			}
			continue
		}
		merged[a] = row[i]
	}
	return merged, true
}

// decideCombo decides the σ̂ predicate for one joined combination and
// emits the tuple when the decision is positive, recording its error
// bound: Σᵢ δᵢ(max(ε_φ, ε₀)) + Σᵢ provenance errors (Lemma 6.4(2)).
func (run *evalRun) decideCombo(n algebra.ApproxSelect, combo []argTuple, outAttrs []string, bound map[string]rel.Value, out *urel.Relation, errs provenance.ErrMap, sing map[string]bool) error {
	run.decisions++
	k := len(combo)
	est := make([]float64, k)
	for i, at := range combo {
		est[i] = at.cv.estimate()
	}
	margin := n.Pred.Margin(est)
	eps := math.Max(run.engine.opts.Eps0, margin)
	decisionErr, provErr := 0.0, 0.0
	indep := 1.0
	singular := margin < run.engine.opts.Eps0
	for _, at := range combo {
		d := at.cv.delta(eps)
		decisionErr += d
		indep *= 1 - math.Min(1, d)
		provErr += at.cv.provErr
		if at.cv.singular {
			singular = true
		}
	}
	if run.engine.opts.IndependentBounds {
		// Lemma 5.1's sharper combination for independent estimators.
		decisionErr = 1 - indep
	}
	tupleBound := decisionErr + provErr
	if !singular && tupleBound > run.worstDecision {
		run.worstDecision = tupleBound
	}
	if !n.Pred.Eval(est) {
		if singular {
			run.singularDrops++
		}
		return nil
	}
	row := make(rel.Tuple, 0, len(outAttrs)+k)
	for _, a := range outAttrs {
		row = append(row, bound[a])
	}
	for i := range combo {
		row = append(row, rel.Float(est[i]))
	}
	out.Add(nil, row)
	key := row.Key()
	if tupleBound > 0 {
		errs.Set(key, tupleBound)
	}
	if singular {
		sing[key] = true
	}
	return nil
}
