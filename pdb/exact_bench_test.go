package pdb_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/workload"
	"repro/pdb"
)

// entityJoinProgram is the end-to-end benchmark's exact-join program
// (benchmark/workloads.go entityJoin) at the middle of its Amount range.
const entityJoinProgram = `R := project[Cluster,Name](repairkey[Cluster @ Weight](Candidates)); ` +
	`conf(project[Cluster,Name](join(R, select[Amount >= 500](Orders))))`

// BenchmarkEvalExactEntityJoin is the exact-join workload's evaluation in
// steady state: exact conf over a repair-key join on the 1 000-row
// entity-resolution corpus, one worker, the query prepared once. It tracks
// the exact algebra (urel operators, lineage grouping, dnf) and
// pdb.Result assembly without the end-to-end harness.
func BenchmarkEvalExactEntityJoin(b *testing.B) {
	sc, err := workload.ScenarioByName("entity-resolution")
	if err != nil {
		b.Fatal(err)
	}
	sources, err := sc.Generate(b.TempDir(), 1000, 1)
	if err != nil {
		b.Fatal(err)
	}
	db, err := pdb.Open(sources)
	if err != nil {
		b.Fatal(err)
	}
	q, err := db.Prepare(entityJoinProgram)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := q.EvalExact(ctx, pdb.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		if res.Len() == 0 {
			b.Fatal("empty result")
		}
	}
}

// branchJoinProgram joins two complete branches — a projection of the
// candidates and a selection of the orders — under one conf.
const branchJoinProgram = `conf(project[Cluster](join(project[Cluster,Name](Candidates), select[Amount >= 500](Orders))))`

// h0Program is the #P-hard H₀ query ∃x,y R(x)∧S(x,y)∧T(y), once per group
// G: conf's lineage groups are independent and each is costly to compute
// exactly.
const h0Program = `conf(project[G](join(join(R, S), T)))`

// h0DB builds tuple-independent R(G, X), S(G, X, Y) and T(G, Y) holding
// one H₀ instance over n constants per group, for as many groups as fit in
// about rows tuples (n + n² + n per group).
func h0DB(b *testing.B, rows, n int) *pdb.DB {
	var rr, ss, tt [][]any
	var pr, ps, pt []float64
	prob := func(i int) float64 { return 0.2 + 0.6*float64(i%7)/7 }
	for g := 0; g < max(1, rows/(n*n+2*n)); g++ {
		for x := 0; x < n; x++ {
			rr, pr = append(rr, []any{g, x}), append(pr, prob(len(rr)))
			tt, pt = append(tt, []any{g, x}), append(pt, prob(len(tt)+3))
			for y := 0; y < n; y++ {
				ss, ps = append(ss, []any{g, x, y}), append(ps, prob(len(ss)+5))
			}
		}
	}
	db, err := pdb.NewBuilder().
		Independent("R", []string{"G", "X"}, rr, pr).
		Independent("S", []string{"G", "X", "Y"}, ss, ps).
		Independent("T", []string{"G", "Y"}, tt, pt).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkExactWorkers sweeps exact evaluation over input size and worker
// count, for the decision of what runs in parallel: operators and plan
// branches run sequentially, and only the per-group exact confidences fan
// out. Three programs: the exact-join workload's, a join of two complete
// branches, and many independent H₀ groups (n = 4). Compare one worker
// against two with -cpu 2 and a time-based -benchtime.
func BenchmarkExactWorkers(b *testing.B) {
	sc, err := workload.ScenarioByName("entity-resolution")
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{1000, 10000, 100000} {
		sources, err := sc.Generate(b.TempDir(), int64(rows), 1)
		if err != nil {
			b.Fatal(err)
		}
		corpus, err := pdb.Open(sources)
		if err != nil {
			b.Fatal(err)
		}
		programs := []struct {
			name, program string
			db            *pdb.DB
		}{
			{"exact-join", entityJoinProgram, corpus},
			{"branch-join", branchJoinProgram, corpus},
			{"h0-groups", h0Program, h0DB(b, rows, 4)},
		}
		for _, p := range programs {
			q, err := p.db.Prepare(p.program)
			if err != nil {
				b.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/rows=%d/workers=%d", p.name, rows, workers), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						res, err := q.EvalExact(context.Background(), pdb.WithWorkers(workers))
						if err != nil {
							b.Fatal(err)
						}
						if res.Len() == 0 {
							b.Fatal("empty result")
						}
					}
				})
			}
		}
	}
}
