package pdb_test

import (
	"context"
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
