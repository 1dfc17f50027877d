package urel

import (
	"testing"

	"repro/internal/rel"
	"repro/internal/vars"
)

// TestRepairKeyAllocsIndependentOfGroups: RepairKey allocates as often for
// 1 000 tuples in 10 groups as for 1 000 tuples in 1 000 groups, so no
// per-group string, struct or slice has come back.
func TestRepairKeyAllocsIndependentOfGroups(t *testing.T) {
	allocs := func(groups int) float64 {
		r := NewRelation(rel.NewSchema("K", "V", "W"))
		for i := 0; i < 1000; i++ {
			r.Add(nil, rel.Tuple{rel.Int(int64(i % groups)), rel.Int(int64(i)), rel.Float(1)})
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RepairKey(r, []string{"K"}, "W", vars.NewTable(), "rk1"); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(10), allocs(1000); few != many {
		t.Errorf("RepairKey allocates %v times over 10 groups, %v over 1 000", few, many)
	}
}

// TestRepairKeyIdentityClash forces a clash through the identity
// derivation (rkID): the table already holds the identity repair-key
// derives for group k. The group's variable is disambiguated and counted,
// the older variable keeps its identity, and both keep their names and
// probabilities.
func TestRepairKeyIdentityClash(t *testing.T) {
	r := completeRel(rel.NewSchema("K", "V", "W"),
		rel.Tuple{rel.String("k"), rel.String("a"), rel.Float(1)},
		rel.Tuple{rel.String("k"), rel.String("b"), rel.Float(3)},
		rel.Tuple{rel.String("j"), rel.String("a"), rel.Float(2)},
	)
	taken := rkID("rk1", rel.Tuple{rel.String("k")}.HashAt([]int{0}))
	tab := vars.NewTable()
	old := tab.Register([]uint64{taken}, []float64{0.5, 0.5}, []int32{0, 2}, nil)
	out, err := RepairKey(r, []string{"K"}, "W", tab, "rk1")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 3 || tab.Clashes() != 1 {
		t.Fatalf("%d variables, %d clashes; want 3 and 1", tab.Len(), tab.Clashes())
	}
	k, j := old+1, old+2
	if tab.Info(old).ID != taken || tab.Info(k).ID == taken || tab.Info(k).ID == tab.Info(j).ID {
		t.Errorf("identities %x, %x, %x alias or moved", tab.Info(old).ID, tab.Info(k).ID, tab.Info(j).ID)
	}
	if tab.Name(k) != "rk1[k]" || tab.AltName(k, 1) != "b" || tab.Prob(k, 1) != 0.75 || tab.Prob(j, 0) != 1 {
		t.Errorf("group k: %s, alternative %s at %v", tab.Name(k), tab.AltName(k, 1), tab.Prob(k, 1))
	}
	for i, ut := range out.Tuples() {
		if want := []vars.Var{k, k, j}[i]; len(ut.D) != 1 || ut.D[0].Var != want {
			t.Errorf("tuple %d: D %v, want a binding of %d", i, ut.D, want)
		}
	}
}
