package pdb_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/pdb"
)

// exclusiveDB draws a random database whose lineage excludes itself
// through one variable per tuple (dnf.Exclusive): Items holds repair-key
// groups (K) of 1–14 alternatives, each with a unique Id, an attribute A
// from a small pool and a weight W. Links and Links2 tie every Id to one
// tag of the tuple-independent Flags and Flags2, so joining them adds a
// literal per relation to each alternative's clause, shared between
// alternatives on the same tag. The last group has at least ten
// alternatives. With dup set, Links ties that group's first Id to a second
// tag as well: two of its clauses then bind the group's variable to the
// same alternative, and its lineage is no longer exclusive.
func exclusiveDB(t *testing.T, seed int64, dup bool) *pdb.DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const tags = 5
	var items, links, links2 [][]any
	groups := 2 + rng.Intn(5)
	id := 0
	for k := 0; k < groups; k++ {
		n := 1 + rng.Intn(14)
		if k == groups-1 {
			n = 10 + rng.Intn(5)
		}
		for i := 0; i < n; i++ {
			items = append(items, []any{k, id, rng.Intn(3), 0.1 + rng.Float64()})
			links = append(links, []any{id, rng.Intn(tags)})
			links2 = append(links2, []any{id, rng.Intn(tags)})
			if dup && k == groups-1 && i == 0 {
				links = append(links, []any{id, (links[len(links)-1][1].(int) + 1) % tags})
			}
			id++
		}
	}
	var flags [][]any
	var probs, probs2 []float64
	for tag := 0; tag < tags; tag++ {
		flags = append(flags, []any{tag})
		probs = append(probs, 0.05+0.9*rng.Float64())
		probs2 = append(probs2, 0.05+0.9*rng.Float64())
	}
	db, err := pdb.NewBuilder().
		Table("Items", []string{"K", "Id", "A", "W"}, items...).
		Table("Links", []string{"Id", "Tag"}, links...).
		Table("Links2", []string{"Id", "Tag2"}, links2...).
		Independent("Flags", []string{"Tag"}, flags, probs).
		Independent("Flags2", []string{"Tag2"}, flags, probs2).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

const (
	exclusiveRK = `repairkey[K @ W](Items)`
	// exclusiveTagged is every alternative conjoined with its Flags and
	// Flags2 tags: a clause of three literals, one of them the group's.
	exclusiveTagged = `join(join(` + exclusiveRK + `, join(Links, Flags)), join(Links2, Flags2))`
)

// exclusivePrograms are conf programs whose every tuple has exclusive
// lineage: repair-key groups projected onto supersets of their key, and
// the groups' alternatives conjoined with shared tag variables.
var exclusivePrograms = []string{
	`conf(project[K](` + exclusiveRK + `))`,
	`conf(project[K, A](` + exclusiveRK + `))`,
	`conf(` + exclusiveRK + `)`,
	`conf(project[K](` + exclusiveTagged + `))`,
	`conf(project[K, A](` + exclusiveTagged + `))`,
}

// confRows renders a result's rows with exact float bits and error bounds.
func confRows(res *pdb.Result) string {
	var b strings.Builder
	for row := range res.Rows() {
		for _, c := range res.Columns() {
			if v, ok := row.Value(c).(float64); ok {
				fmt.Fprintf(&b, "|%x", math.Float64bits(v))
			} else {
				fmt.Fprintf(&b, "|%v", row.Value(c))
			}
		}
		fmt.Fprintf(&b, "|%x\n", math.Float64bits(row.ErrorBound()))
	}
	return b.String()
}

// TestExclusiveLineageIsExact: lineage whose clauses exclude one another
// through one variable is summed, not sampled, for conf and σ̂ alike — Eval
// draws no trial and returns EvalExact's P bits, flat and stratified, at
// any worker count — while the same sets with two clauses sharing an
// alternative still sample.
func TestExclusiveLineageIsExact(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 25; seed++ {
		db, dupDB := exclusiveDB(t, seed, false), exclusiveDB(t, seed, true)
		for _, src := range exclusivePrograms {
			q, err := db.Prepare(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			exact, err := q.EvalExact(ctx)
			if err != nil {
				t.Fatal(err)
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
						t.Errorf("%s: sampled %d trials on exclusive lineage", key, n)
					}
					if got, want := confRows(res), confRows(exact); got != want {
						t.Errorf("%s: rows differ from EvalExact's\n%s\nwant\n%s", key, got, want)
					}
					if src != exclusivePrograms[3] {
						continue
					}
					neg, err := dupDB.Prepare(src)
					if err != nil {
						t.Fatal(err)
					}
					if res, err := neg.Eval(ctx, opts...); err != nil {
						t.Fatalf("%s, shared alternative: %v", key, err)
					} else if res.Stats().SampledTrials == 0 {
						t.Errorf("%s: two clauses share an alternative, yet nothing was sampled", key)
					}
				}
			}
		}
		sigma, err := db.Prepare(`aselect[p1 >= 0.5 over conf[K]](project[K, A](` + exclusiveTagged + `))`)
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
