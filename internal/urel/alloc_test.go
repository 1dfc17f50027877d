package urel

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/rel"
	"repro/internal/vars"
)

// TestOperatorAllocsPerOperator pins that the exact operators allocate per
// operator, not per tuple: rows and conditions are carved from slabs, so
// going from 200 input tuples to 2 000 adds no allocation per tuple. What
// it may add grows slower: the doubling of an output or match list, and
// the tables of a hash index's map, one or two per ~900 entries (a join's
// output here has four pairs per input tuple). The bound is one allocation
// per 20 added tuples; one per tuple would add 1 800.
func TestOperatorAllocsPerOperator(t *testing.T) {
	// At n: R(K, V, W) complete, n tuples in n/4 groups of K; D and U its
	// repair-keys (D-key, one binding each, under two prefixes); S(K, C)
	// complete, two tuples per key.
	inputs := func(n int) (r, d, u, s *Relation) {
		r, s = NewRelation(rel.NewSchema("K", "V", "W")), NewRelation(rel.NewSchema("K", "C"))
		for i := 0; i < n; i++ {
			r.Add(nil, rel.Tuple{rel.Int(int64(i % (n / 4))), rel.Int(int64(i)), rel.Float(float64(1 + i%3))})
		}
		for i := 0; i < n/2; i++ {
			s.Add(nil, rel.Tuple{rel.Int(int64(i % (n / 4))), rel.Int(int64(i))})
		}
		tab := vars.NewTable()
		d, err := RepairKey(r, []string{"K"}, "W", tab, "d")
		if err != nil {
			t.Fatal(err)
		}
		u, err = RepairKey(r, []string{"K"}, "W", tab, "u")
		if err != nil {
			t.Fatal(err)
		}
		return r, d, Project(u, []expr.Target{expr.Keep("K"), expr.As("X", expr.A("V"))}), s
	}
	ops := []struct {
		name string
		op   func(r, d, u, s *Relation) func()
	}{
		{"select", func(_, d, _, _ *Relation) func() {
			pred := expr.Gt(expr.A("V"), expr.CInt(3))
			return func() { Select(d, pred) }
		}},
		{"project D-key", func(_, d, _, _ *Relation) func() {
			targets := []expr.Target{expr.Keep("K"), expr.As("V1", expr.Add(expr.A("V"), expr.CInt(1)))}
			return func() { Project(d, targets) }
		}},
		{"project", func(r, _, _, _ *Relation) func() {
			targets := []expr.Target{expr.Keep("K"), expr.As("W2", expr.Mul(expr.A("W"), expr.CInt(2)))}
			return func() { Project(r, targets) }
		}},
		{"join", func(_, d, u, _ *Relation) func() { return func() { Join(d, u) } }},
		{"semijoin", func(_, d, _, s *Relation) func() {
			targets := []expr.Target{expr.Keep("K"), expr.Keep("V")}
			return func() { seqExec.ProjectJoin(d, s, targets) }
		}},
		{"projectjoin", func(_, d, _, s *Relation) func() {
			targets := []expr.Target{expr.Keep("V"), expr.Keep("C")}
			return func() { seqExec.ProjectJoin(d, s, targets) }
		}},
		{"repairkey", func(r, _, _, _ *Relation) func() {
			return func() {
				if _, err := RepairKey(r, []string{"K"}, "W", vars.NewTable(), "rk"); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"withcolumn", func(r, _, _, _ *Relation) func() {
			rows := make([]rel.Tuple, r.Len())
			for i, t := range r.Tuples() {
				rows[i] = t.Row
			}
			return func() { WithColumn(r.Schema(), "P", rows, func(i int) rel.Value { return rel.Float(0.5) }) }
		}},
	}
	small, large := make([]func(), len(ops)), make([]func(), len(ops))
	for _, at := range []struct {
		n  int
		fs []func()
	}{{200, small}, {2000, large}} {
		r, d, u, s := inputs(at.n)
		for i, o := range ops {
			at.fs[i] = o.op(r, d, u, s)
		}
	}
	for i, o := range ops {
		a, b := testing.AllocsPerRun(5, small[i]), testing.AllocsPerRun(5, large[i])
		if b-a >= 90 {
			t.Errorf("%s: %v allocations at n = 200, %v at n = 2 000", o.name, a, b)
		}
	}
}
