package pdb_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/pdb"
)

// certainDB draws a random database of repair-key groups (K) of 1–4
// alternatives, each with a unique Id and a score A in {0, 1, 2}, gathered
// under row keys G of 1–3 groups each. In every G exactly one group is
// full — each of its alternatives has A ≥ 1 — and every other group has an
// alternative with A = 0, so the lineage of G under select[A >= 1] is
// certain through the full group alone; a full group of one alternative
// is a one-alternative variable, whose literal is true in every world.
// With drop set, the full group's first alternative gets A = 0: no G is
// certain any more. sampled reports whether some G then keeps alternatives
// of two groups — lineage that is neither certain nor exclusive, so it
// must be sampled.
func certainDB(t *testing.T, seed int64, drop bool) (db *pdb.DB, sampled bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var items [][]any
	id, key := 0, 0
	for g, ng := 0, 2+rng.Intn(4); g < ng; g++ {
		nk := 1 + rng.Intn(3)
		full := rng.Intn(nk)
		kept := 0 // groups of g with an alternative of A ≥ 1
		for k := 0; k < nk; k++ {
			alts, hot := 1+rng.Intn(4), false
			for i := 0; i < alts; i++ {
				a, hotA := rng.Intn(3), 1+rng.Intn(2)
				switch {
				case k == full && (!drop || i > 0):
					a = hotA
				case i == 0:
					a = 0
				}
				hot = hot || a >= 1
				items = append(items, []any{g, key, id, a, 0.1 + rng.Float64()})
				id++
			}
			if hot {
				kept++
			}
			key++
		}
		sampled = sampled || kept >= 2
	}
	db, err := pdb.NewBuilder().Table("Items", []string{"G", "K", "Id", "A", "W"}, items...).Build()
	if err != nil {
		t.Fatal(err)
	}
	return db, sampled
}

const certainHot = `select[A >= 1](repairkey[K @ W](Items))`

// certainPrograms are conf programs whose every tuple has certain lineage
// on certainDB: the hot alternatives of G's groups, and every pair of them
// (as in the conf-flat benchmark, whose lineage holds every alternative
// pair of two groups) — a pair of one-alternative literals among them.
var certainPrograms = []string{
	`conf(project[G](` + certainHot + `))`,
	`R := ` + certainHot + `; conf(project[G](join(project[G, K](R), project[G, K as K2](R))))`,
}

// TestCertainLineageIsExact: lineage every world extends is the exact
// value 1, for conf and σ̂ alike — Eval draws no trial and returns
// EvalExact's P bits, P = 1 exactly, flat and stratified, at any worker
// count — while the same databases with one alternative of each full
// group dropped are not: flat, they sample again or, where each G keeps
// one group, are summed by the exclusive rule; exact rows, which the
// factoring pre-pass makes of small lineage under strata, fall below 1.
func TestCertainLineageIsExact(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 25; seed++ {
		db, _ := certainDB(t, seed, false)
		neg, negSampled := certainDB(t, seed, true)
		for _, src := range certainPrograms {
			q, err := db.Prepare(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			exact, err := q.EvalExact(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for row := range exact.Rows() {
				if p := row.Float("P"); p != 1 {
					t.Errorf("seed %d %s: EvalExact P = %v for G = %v, want 1", seed, src, p, row.Value("G"))
				}
			}
			nq, err := neg.Prepare(src)
			if err != nil {
				t.Fatal(err)
			}
			negExact, err := nq.EvalExact(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for row := range negExact.Rows() {
				if p := row.Float("P"); p >= 1 {
					t.Errorf("seed %d %s, alternative dropped: EvalExact P = %v for G = %v, want < 1", seed, src, p, row.Value("G"))
				}
			}
			for _, workers := range []int{1, 4} {
				for _, strata := range []int{0, 4} {
					key := fmt.Sprintf("seed %d %s workers=%d strata=%d", seed, src, workers, strata)
					opts := []pdb.Option{pdb.WithSeed(seed), pdb.WithWorkers(workers), pdb.WithConfBudget(0.1, 0.1)}
					if strata > 0 {
						opts = append(opts, pdb.WithStrata(strata))
					}
					res, err := q.Eval(ctx, opts...)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if n := res.Stats().SampledTrials; n != 0 {
						t.Errorf("%s: sampled %d trials on certain lineage", key, n)
					}
					if got, want := confRows(res), confRows(exact); got != want {
						t.Errorf("%s: rows differ from EvalExact's\n%s\nwant\n%s", key, got, want)
					}
					res, err = nq.Eval(ctx, opts...)
					if err != nil {
						t.Fatalf("%s, alternative dropped: %v", key, err)
					}
					n := res.Stats().SampledTrials
					switch {
					case strata == 0 && negSampled && n == 0:
						t.Errorf("%s: an alternative was dropped, yet nothing was sampled", key)
					case strata == 0 && !negSampled && n != 0:
						t.Errorf("%s: every G keeps one group, yet %d trials were sampled", key, n)
					case strata == 0 && !negSampled && confRows(res) != confRows(negExact):
						t.Errorf("%s, alternative dropped: exclusive rows differ from EvalExact's", key)
					case n == 0:
						for row := range res.Rows() {
							if p := row.Float("P"); p >= 1 {
								t.Errorf("%s, alternative dropped: exact P = %v for G = %v, want < 1", key, p, row.Value("G"))
							}
						}
					}
				}
			}
		}
		sigma, err := db.Prepare(`aselect[p1 >= 0.5 over conf[G]](project[G](` + certainHot + `))`)
		if err != nil {
			t.Fatal(err)
		}
		for _, strata := range []int{0, 4} {
			opts := []pdb.Option{pdb.WithSeed(seed), pdb.WithEpsilon(0.1), pdb.WithDelta(0.1)}
			if strata > 0 {
				opts = append(opts, pdb.WithStrata(strata))
			}
			res, err := sigma.Eval(ctx, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if st := res.Stats(); st.SampledTrials != 0 || st.Decisions == 0 {
				t.Errorf("seed %d σ̂ strata=%d: %d trials over %d decisions, want none over some",
					seed, strata, st.SampledTrials, st.Decisions)
			}
		}
	}
}
