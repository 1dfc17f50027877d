package algebra

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/predapprox"
	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/workload"
)

func BenchmarkURelEvaluatorCoinExample(b *testing.B) {
	db := coinDB()
	_, _, _, u := coinQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewURelEvaluator(db).Eval(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorldsEvaluatorCoinExample(b *testing.B) {
	db := coinDB()
	_, _, _, u := coinQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := NewWorldsEvaluatorFromURel(db, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ev.Eval(u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactApproxSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db := workload.MultiClause(rng, "R", 16, 4, 4, 2)
	q := ApproxSelect{
		In:   Base{Name: "R"},
		Args: []ConfArg{{Attrs: []string{"ID"}}},
		Pred: predapprox.Linear([]float64{1}, 0.5),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewURelEvaluator(db).Eval(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRepairKeyEval(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	db := workload.DirtyCustomers(rng, 64, 4)
	q := Conf{In: Project{
		In:      RepairKey{In: Base{Name: "Candidates"}, Key: []string{"Cluster"}, Weight: "Weight"},
		Targets: []expr.Target{expr.Keep("Cluster"), expr.Keep("Name")},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewURelEvaluator(db).Eval(q); err != nil {
			b.Fatal(err)
		}
	}
}

// confFlatPlan is the end-to-end benchmark's conf-flat program:
//
//	D := project[Sensor,Epoch,Value](repairkey[Sensor,Epoch @ Conf](Readings));
//	H := project[Sensor,Epoch](select[Value >= 25](D));
//	N := project[Sensor, Epoch - 1 as Epoch](H);
//	conf(project[Sensor](join(H, N)))
func confFlatPlan() (Query, *urel.Database) {
	db := urel.NewDatabase()
	db.AddComplete("Readings", rel.NewRelation(rel.NewSchema("Sensor", "Epoch", "Value", "Conf")))
	d := Project{In: RepairKey{In: Base{Name: "Readings"}, Key: []string{"Sensor", "Epoch"}, Weight: "Conf"},
		Targets: []expr.Target{expr.Keep("Sensor"), expr.Keep("Epoch"), expr.Keep("Value")}}
	h := Project{In: Select{In: Base{Name: "D"}, Pred: expr.Ge(expr.A("Value"), expr.CInt(25))},
		Targets: []expr.Target{expr.Keep("Sensor"), expr.Keep("Epoch")}}
	n := Project{In: Base{Name: "H"},
		Targets: []expr.Target{expr.Keep("Sensor"), expr.As("Epoch", expr.Sub(expr.A("Epoch"), expr.CInt(1)))}}
	body := Conf{In: Project{In: Join{L: Base{Name: "H"}, R: Base{Name: "N"}}, Targets: []expr.Target{expr.Keep("Sensor")}}}
	return Let{Name: "D", Def: d, In: Let{Name: "H", Def: h, In: Let{Name: "N", Def: n, In: body}}}, db
}

// letChain is X1 := select[A >= 0](R); X2 := select[A >= 0](X1); …; X_depth.
func letChain(depth int) Query {
	var q Query = Base{Name: "X" + strconv.Itoa(depth)}
	for i := depth; i >= 1; i-- {
		prev := "X" + strconv.Itoa(i-1)
		if i == 1 {
			prev = "R"
		}
		q = Let{Name: "X" + strconv.Itoa(i), Def: Select{In: Base{Name: prev},
			Pred: expr.Ge(expr.A("A"), expr.CInt(0))}, In: q}
	}
	return q
}

// BenchmarkCompile is the static pass every evaluation makes, over the
// conf-flat plan and a 400-deep let chain.
func BenchmarkCompile(b *testing.B) {
	flat, flatDB := confFlatPlan()
	for _, c := range []struct {
		name string
		q    Query
		db   *urel.Database
	}{{"conf-flat", flat, flatDB}, {"let-chain", letChain(400), inferDB()}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compile(c.q, c.db.Rels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLetChainEval is exact evaluation of the 400-deep let chain: one
// compile and 400 walked selections.
func BenchmarkLetChainEval(b *testing.B) {
	q, db := letChain(400), inferDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewURelEvaluator(db).Eval(q); err != nil {
			b.Fatal(err)
		}
	}
}
