package cluster

import (
	"testing"

	"repro/internal/dnf"
	"repro/internal/sched"
	"repro/internal/vars"
)

// A task naming a stratum the shard cannot sample — beyond the plan, or a
// band of zero total weight — is a request error, not a panic in the
// sampler; a flat task (maxStrata 0) is the single-stratum plan.
func TestWireTaskBuildRejectsUnsampleableStratum(t *testing.T) {
	table := vars.RestoreTable([]vars.Info{
		{ID: 1, Probs: []float64{0.5, 0.5}},
		{ID: 2, Probs: []float64{0, 1}},
	})
	clauses := dnf.F{
		vars.MustAssignment(vars.Binding{Var: 0, Alt: 0}), // weight 0.5: band 0
		vars.MustAssignment(vars.Binding{Var: 1, Alt: 0}), // weight 0: last band
	}
	task := func(maxStrata, stratum int) *wireTask {
		return &wireTask{chunkSize: 4096, maxStrata: maxStrata, stratum: stratum, clauses: clauses, table: table,
			chunks: []sched.Chunk{{Index: 0, N: 64}}}
	}
	for _, tc := range []struct {
		maxStrata, stratum int
		ok                 bool
	}{{0, 0, true}, {0, 1, false}, {2, 0, true}, {2, 1, false}, {2, 2, false}} {
		_, err := task(tc.maxStrata, tc.stratum).build()
		if (err == nil) != tc.ok {
			t.Errorf("maxStrata=%d stratum=%d: build error = %v, want ok=%v", tc.maxStrata, tc.stratum, err, tc.ok)
		}
	}
	sh := NewShard(ShardConfig{Workers: 1})
	if _, err := sh.sample([]wireTask{*task(2, 1)}); err == nil {
		t.Error("sampling a zero-weight stratum succeeded")
	}
}
