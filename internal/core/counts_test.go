package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/algebra"
)

// lyingDistributor samples honestly, then corrupts the first task's counts.
type lyingDistributor struct {
	loopbackDistributor
	lie func(*RemoteCounts)
}

func (d *lyingDistributor) SampleChunks(ctx context.Context, tasks []RemoteTask) ([]RemoteCounts, error) {
	out, err := d.loopbackDistributor.SampleChunks(ctx, tasks)
	if err == nil {
		d.lie(&out[0])
	}
	return out, err
}

// Counts that cannot be the sum of the assigned chunks — a buggy or hostile
// shard — must abort the evaluation with a typed error before they reach an
// estimator (which panics on them), a Stats field, or the cache.
func TestImpossibleRemoteCountsRejected(t *testing.T) {
	lies := map[string]func(*RemoteCounts){
		"hits>trials":           func(rc *RemoteCounts) { rc.Hits = rc.Trials + 1 },
		"hits<0":                func(rc *RemoteCounts) { rc.Hits = math.MinInt64 }, // a uvarint above MaxInt64
		"trials!=assigned":      func(rc *RemoteCounts) { rc.Trials++ },
		"everything overflowed": func(rc *RemoteCounts) { *rc = RemoteCounts{-1, -1} },
	}
	db := matrixDB()
	for name, lie := range lies {
		for _, strata := range []int{0, 8} {
			eng := NewEngine(db, Options{Eps0: 0.05, Delta: 0.1, Seed: 11, Strata: strata})
			cache := NewCache(0)
			eng.SetCache(cache)
			eng.SetDistributor(&lyingDistributor{lie: lie})
			_, err := eng.EvalApprox(algebra.Conf{In: algebra.Base{Name: "R"}})
			var ce *countsError
			if !errors.As(err, &ce) {
				t.Errorf("%s strata=%d: got %v, want a *countsError", name, strata, err)
			}
			if n := cache.len(); n != 0 {
				t.Errorf("%s strata=%d: rejected counts left %d cache entries", name, strata, n)
			}
		}
	}
}
