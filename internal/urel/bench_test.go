package urel

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/vars"
)

// benchRelation builds an n-tuple U-relation over nv binary variables
// with random single-binding D columns.
func benchRelation(rng *rand.Rand, schema rel.Schema, n int, tab *vars.Table, nv int) *Relation {
	base := tab.Len()
	for i := 0; i < nv; i++ {
		tab.Add("b"+strconv.Itoa(base+i), []float64{0.5, 0.5}, nil)
	}
	r := NewRelation(schema)
	for i := 0; i < n; i++ {
		d := vars.MustAssignment(vars.Binding{
			Var: vars.Var(base + rng.Intn(nv)),
			Alt: int32(rng.Intn(2)),
		})
		row := make(rel.Tuple, len(schema))
		for j := range row {
			row[j] = rel.Int(int64(rng.Intn(16)))
		}
		r.Add(d, row)
	}
	return r
}

func BenchmarkURelJoin(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tab := vars.NewTable()
	l := benchRelation(rng, rel.NewSchema("A", "B"), 256, tab, 32)
	r := benchRelation(rng, rel.NewSchema("B", "C"), 256, tab, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(l, r)
	}
}

func BenchmarkURelProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	tab := vars.NewTable()
	l := benchRelation(rng, rel.NewSchema("A"), 64, tab, 16)
	r := benchRelation(rng, rel.NewSchema("B"), 64, tab, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Product(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkURelSelectProject(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tab := vars.NewTable()
	r := benchRelation(rng, rel.NewSchema("A", "B"), 1024, tab, 64)
	pred := expr.Ge(expr.A("A"), expr.CInt(8))
	targets := []expr.Target{expr.As("S", expr.Add(expr.A("A"), expr.A("B")))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Project(Select(r, pred), targets)
	}
}

func BenchmarkRepairKey(b *testing.B) {
	rows := make([]rel.Tuple, 0, 512)
	for i := 0; i < 512; i++ {
		rows = append(rows, rel.Tuple{
			rel.Int(int64(i % 64)), // 64 key groups of 8 alternatives
			rel.Int(int64(i)),
			rel.Float(1 + float64(i%7)),
		})
	}
	base := rel.FromRows(rel.NewSchema("K", "V", "W"), rows...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := vars.NewTable()
		if _, err := RepairKey(FromComplete(base), []string{"K"}, "W", tab, "rk"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectJoinSemi is π∘⋈ in the exact-join shape: 1 000 uncertain
// pairs, each matching 4 tuples of a complete relation, projected onto the
// uncertain side's columns — ProjectJoin's semijoin case.
func BenchmarkProjectJoinSemi(b *testing.B) {
	l := NewRelation(rel.NewSchema("K", "N"))
	c := rel.NewRelation(rel.NewSchema("K", "O"))
	for i := 0; i < 1000; i++ {
		l.Add(vars.Assignment{{Var: vars.Var(i), Alt: int32(i % 2)}}, rel.Tuple{rel.Int(int64(i % 250)), rel.Int(int64(i))})
		c.Add(rel.Tuple{rel.Int(int64(i % 250)), rel.Int(int64(i))})
	}
	r := FromComplete(c)
	targets := []expr.Target{expr.Keep("K"), expr.Keep("N")}
	x := NewExec(nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.ProjectJoin(l, r, targets)
	}
}

// largeRelation builds an n-tuple U-relation whose join attribute (the
// first schema column) takes values in [0, keys), so an equi-join of two
// such relations has ~n²/keys matching pairs. D columns are single-binding
// assignments over nv binary variables.
func largeRelation(rng *rand.Rand, schema rel.Schema, n, keys int, tab *vars.Table, nv int) *Relation {
	base := tab.Len()
	for i := 0; i < nv; i++ {
		tab.Add("L"+strconv.Itoa(base+i), []float64{0.5, 0.5}, nil)
	}
	r := NewRelation(schema)
	for i := 0; i < n; i++ {
		d := vars.MustAssignment(vars.Binding{
			Var: vars.Var(base + rng.Intn(nv)),
			Alt: int32(rng.Intn(2)),
		})
		row := make(rel.Tuple, len(schema))
		row[0] = rel.Int(int64(rng.Intn(keys)))
		for j := 1; j < len(row); j++ {
			row[j] = rel.Int(int64(i*len(row) + j)) // distinct fillers: no dedup collapse
		}
		r.Add(d, row)
	}
	return r
}

// BenchmarkJoinLarge joins two 100k-tuple U-relations on one shared
// attribute with ~100k matching pairs — the exact-algebra hot path the
// hash join targets. Tracked by CI's benchstat gate on both
// sec/op and allocs/op.
func BenchmarkJoinLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	tab := vars.NewTable()
	l := largeRelation(rng, rel.NewSchema("K", "A1", "A2"), 100_000, 100_000, tab, 64)
	r := largeRelation(rng, rel.NewSchema("K", "B1", "B2"), 100_000, 100_000, tab, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(l, r)
	}
}

// BenchmarkProductWide crosses a 512-tuple and a 256-tuple wide (8-column)
// relation: ~131k output tuples of 16 columns each, stressing per-pair
// assignment union and row construction.
func BenchmarkProductWide(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	tab := vars.NewTable()
	schemaA := rel.NewSchema("A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7")
	schemaB := rel.NewSchema("B0", "B1", "B2", "B3", "B4", "B5", "B6", "B7")
	l := largeRelation(rng, schemaA, 512, 512, tab, 32)
	r := largeRelation(rng, schemaB, 256, 256, tab, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Product(l, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLineageGroup groups a 200k-tuple U-relation with ~20k distinct
// data tuples (10 clauses per tuple on average) — the conf/σ̂ lineage
// grouping path.
func BenchmarkLineageGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	tab := vars.NewTable()
	nv := 128
	for i := 0; i < nv; i++ {
		tab.Add("g"+strconv.Itoa(i), []float64{0.5, 0.5}, nil)
	}
	r := NewRelation(rel.NewSchema("ID", "V"))
	for i := 0; i < 200_000; i++ {
		d := vars.MustAssignment(vars.Binding{
			Var: vars.Var(rng.Intn(nv)),
			Alt: int32(rng.Intn(2)),
		})
		row := rel.Tuple{rel.Int(int64(i % 20_000)), rel.Int(int64(i % 16))}
		r.Add(d, row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Lineage(r)
	}
}

func BenchmarkConfExact(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	tab := vars.NewTable()
	r := benchRelation(rng, rel.NewSchema("A"), 128, tab, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ConfExact(r, tab, "P"); err != nil {
			b.Fatal(err)
		}
	}
}
