package cluster_test

import (
	"context"
	"fmt"
	"testing"

	"repro/pdb"
)

// BenchmarkClusterScatterGather measures one fixed-budget clustered
// evaluation end to end — planning, scatter over loopback TCP, shard-side
// sampling, gather, merge — at 1, 2, and 4 in-process shards, with the
// single-node engine as the zero-RPC baseline. The seed varies per
// iteration so every run genuinely samples instead of replaying the
// engine's estimator cache.
func BenchmarkClusterScatterGather(b *testing.B) {
	db := skewDB(b)
	for _, shards := range []int{0, 1, 2, 4} {
		name := "local"
		if shards > 0 {
			name = fmt.Sprintf("shards=%d", shards)
		}
		b.Run(name, func(b *testing.B) {
			var engOpts []pdb.EngineOption
			if shards > 0 {
				engOpts = append(engOpts, pdb.WithEngineCluster(pdb.ClusterOptions{
					Peers: startShards(b, shards),
				}))
			}
			eng, err := db.Engine(engOpts...)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			q, err := eng.Prepare(grpConfProgram)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := q.Eval(context.Background(),
					pdb.WithConfBudget(0.05, 0.05), pdb.WithSeed(int64(i+1)))
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
