package urel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rel"
	"repro/internal/vars"
)

// Certain wraps a single certain value.
func Certain(v rel.Value) AttrAlternatives {
	return AttrAlternatives{Values: []rel.Value{v}, Probs: []float64{1}}
}

func altRow(specs ...AttrAlternatives) []AttrAlternatives { return specs }

func twoWay(a, b rel.Value, p float64) AttrAlternatives {
	return AttrAlternatives{Values: []rel.Value{a, b}, Probs: []float64{p, 1 - p}}
}

func TestVerticalDecompositionBasic(t *testing.T) {
	tab := vars.NewTable()
	schema := rel.NewSchema("Name", "City")
	rows := [][]AttrAlternatives{
		altRow(twoWay(rel.String("Ann"), rel.String("Anna"), 0.7), Certain(rel.String("NYC"))),
		altRow(Certain(rel.String("Bob")), twoWay(rel.String("LA"), rel.String("SF"), 0.4)),
	}
	vd, err := BuildAttributeUncertainty(tab, schema, rows, "TID", "u")
	if err != nil {
		t.Fatal(err)
	}
	// Sum of alternatives: (2+1) + (1+2) = 6 U-tuples.
	if vd.Size() != 6 {
		t.Errorf("Size = %d, want 6", vd.Size())
	}
	joined := vd.Joined()
	// Product of alternatives: 2·1 + 1·2 = 4 joined U-tuples.
	if joined.Len() != 4 {
		t.Errorf("Joined len = %d, want 4", joined.Len())
	}
	conf, err := ConfExact(joined, tab, "P")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"Ann|NYC":  0.7,
		"Anna|NYC": 0.3,
		"Bob|LA":   0.4,
		"Bob|SF":   0.6,
	}
	for _, tp := range conf.Tuples() {
		key := conf.Value(tp, "Name").AsString() + "|" + conf.Value(tp, "City").AsString()
		if math.Abs(conf.Value(tp, "P").AsFloat()-want[key]) > 1e-12 {
			t.Errorf("conf(%s) = %v, want %v", key, conf.Value(tp, "P").AsFloat(), want[key])
		}
	}
}

func TestVerticalValidation(t *testing.T) {
	tab := vars.NewTable()
	schema := rel.NewSchema("A")
	if _, err := BuildAttributeUncertainty(tab, schema, [][]AttrAlternatives{{}}, "TID", "u"); err == nil {
		t.Error("arity mismatch must fail")
	}
	if _, err := BuildAttributeUncertainty(tab, schema, nil, "A", "u"); err == nil {
		t.Error("TID collision must fail")
	}
	bad := [][]AttrAlternatives{altRow(AttrAlternatives{Values: []rel.Value{rel.Int(1)}, Probs: []float64{0.5, 0.5}})}
	if _, err := BuildAttributeUncertainty(tab, schema, bad, "TID", "u2"); err == nil {
		t.Error("malformed alternatives must fail")
	}
	if _, err := FlatEncoding(tab, schema, [][]AttrAlternatives{{}}, "f"); err == nil {
		t.Error("flat arity mismatch must fail")
	}
}

// The decomposition represents the same distribution as the flat encoding
// while staying exponentially smaller: with k independently 2-way
// uncertain attributes, vertical size is 2k per row, flat size is 2^k.
func TestVerticalSuccinctnessAndEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 6
	schema := make(rel.Schema, k)
	for j := range schema {
		schema[j] = "A" + string(rune('0'+j))
	}
	row := make([]AttrAlternatives, k)
	for j := range row {
		p := 0.2 + 0.6*rng.Float64()
		row[j] = twoWay(rel.Int(int64(2*j)), rel.Int(int64(2*j+1)), p)
	}
	rows := [][]AttrAlternatives{row}

	vtab := vars.NewTable()
	vd, err := BuildAttributeUncertainty(vtab, rel.NewSchema(schema...), rows, "TID", "v")
	if err != nil {
		t.Fatal(err)
	}
	ftab := vars.NewTable()
	flat, err := FlatEncoding(ftab, rel.NewSchema(schema...), rows, "f")
	if err != nil {
		t.Fatal(err)
	}
	if vd.Size() != 2*k {
		t.Errorf("vertical size = %d, want %d", vd.Size(), 2*k)
	}
	if flat.Len() != 1<<k {
		t.Errorf("flat size = %d, want %d", flat.Len(), 1<<k)
	}

	// Same distribution: every possible tuple has equal confidence.
	confV, err := ConfExact(vd.Joined(), vtab, "P")
	if err != nil {
		t.Fatal(err)
	}
	confF, err := ConfExact(flat, ftab, "P")
	if err != nil {
		t.Fatal(err)
	}
	if confV.Len() != confF.Len() {
		t.Fatalf("possible-tuple counts differ: %d vs %d", confV.Len(), confF.Len())
	}
	for _, tp := range confV.Tuples() {
		var stored rel.Tuple
		i := confF.Pos(tp)
		ok := i >= 0
		if ok {
			stored = confF.Tuples()[i]
		}
		if !ok {
			// Confidence columns may differ numerically; match on data.
			data := tp[:len(tp)-1]
			found := false
			for _, ft := range confF.Tuples() {
				if ft[:len(ft)-1].Equal(data) {
					stored, found = ft, true
					break
				}
			}
			if !found {
				t.Fatalf("tuple %v missing in flat encoding", data)
			}
		}
		pv := tp[len(tp)-1].AsFloat()
		pf := stored[len(stored)-1].AsFloat()
		if math.Abs(pv-pf) > 1e-9 {
			t.Errorf("confidence mismatch for %v: %v vs %v", tp[:len(tp)-1], pv, pf)
		}
	}
}

// FlatEncoding builds the non-decomposed representation of the same
// attribute-uncertain relation: one fresh variable per row ranging over
// the full cartesian product of attribute alternatives. It is the
// baseline the decomposition's succinctness is measured against.
func FlatEncoding(tab *vars.Table, schema rel.Schema, rows [][]AttrAlternatives, prefix string) (*Relation, error) {
	out := NewRelation(schema)
	for i, row := range rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("urel: row %d has %d attribute specs for schema %v", i, len(row), schema)
		}
		// Enumerate the product of alternatives.
		type combo struct {
			vals rel.Tuple
			p    float64
		}
		combos := []combo{{vals: rel.Tuple{}, p: 1}}
		for _, alts := range row {
			next := make([]combo, 0, len(combos)*len(alts.Values))
			for _, c := range combos {
				for a, v := range alts.Values {
					next = append(next, combo{
						vals: append(c.vals.Clone(), v),
						p:    c.p * alts.Probs[a],
					})
				}
			}
			combos = next
		}
		if len(combos) == 1 {
			out.Add(nil, combos[0].vals)
			continue
		}
		probs := make([]float64, len(combos))
		names := make([]string, len(combos))
		for a, c := range combos {
			probs[a] = c.p
			names[a] = c.vals.String()
		}
		v := tab.Add(fmt.Sprintf("%s[%d]", prefix, i), probs, names)
		for a, c := range combos {
			out.Add(vars.MustAssignment(vars.Binding{Var: v, Alt: int32(a)}), c.vals)
		}
	}
	return out, nil
}
