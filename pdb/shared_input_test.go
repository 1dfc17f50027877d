package pdb_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/pdb"
)

// sharedSelectProgram binds one selection and reads it on both sides of a
// join and of each union beneath it: every branch clones or probes X,
// which a selection leaves without a dedup index.
const sharedSelectProgram = `X := select[A >= 2](T);
join(union(diff(T, X), X), union(X, diff(U, X)))`

// TestSharedSelectOutputConcurrentBranches: four goroutines evaluate the
// program at four workers, once on the database and twice on one engine
// whose memo shares its published sub-plans — the selection output among
// them — between all four; they neither race (run under -race) nor move a
// row against a one-worker evaluation.
func TestSharedSelectOutputConcurrentBranches(t *testing.T) {
	ctx := context.Background()
	var trows, urows [][]any
	for i := 0; i < 3000; i++ {
		trows = append(trows, []any{i % 700, i % 5})
		urows = append(urows, []any{i % 900, i % 3})
	}
	db, err := pdb.NewBuilder().
		Table("T", []string{"K", "A"}, trows...).
		Table("U", []string{"K", "A"}, urows...).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := func(q *pdb.Query, workers int) ([]string, error) {
		res, err := q.EvalExact(ctx, pdb.WithWorkers(workers))
		if err != nil {
			return nil, err
		}
		var out []string
		for row := range res.Rows() {
			out = append(out, row.String())
		}
		return out, nil
	}
	q, err := db.Prepare(sharedSelectProgram)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rows(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate program: no rows")
	}
	eng, err := db.Engine()
	if err != nil {
		t.Fatal(err)
	}
	engQ, err := eng.Prepare(sharedSelectProgram)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, q := range []*pdb.Query{q, engQ, engQ} {
				got, err := rows(q, 4)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(got, want) {
					errs <- fmt.Errorf("goroutine %d: %d rows differ from the one-worker evaluation's %d", g, len(got), len(want))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
