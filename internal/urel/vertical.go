package urel

import (
	"fmt"

	"repro/internal/rel"
	"repro/internal/vars"
)

// This file implements attribute-level uncertainty by vertical
// decomposition, which Section 3 of the paper notes "can be realized
// succinctly ... without additional cost" [1]: a relation whose attributes
// are independently uncertain is stored as one U-relation per attribute,
// each carrying a tuple identifier, so the representation size is the SUM
// of the per-attribute alternative counts while the represented relation
// ranges over their PRODUCT. The full tuples are recovered by a natural
// join on the tuple identifier.

// AttrAlternatives lists the possible values of one attribute of one row
// with their probabilities (must sum to 1; a single certain value is
// {Values: [v], Probs: [1]}).
type AttrAlternatives struct {
	Values []rel.Value
	Probs  []float64
}

// VerticalDecomposition is the decomposed representation: one U-relation
// per original attribute, each with schema (TID, attr).
type VerticalDecomposition struct {
	Schema rel.Schema // the original attributes, in order
	TID    string     // the tuple-identifier attribute name
	Parts  []*Relation
}

// BuildAttributeUncertainty constructs the vertical decomposition of a
// relation with independently uncertain attributes. rows[i][j] lists the
// alternatives of attribute schema[j] in row i. One fresh random variable
// per (row, uncertain attribute) is registered in tab, in one
// registration whose identities mix prefix, row and column; its names,
// prefix[row.attr] with the values as alternatives, render from rows,
// which must stay unchanged. Attributes with a single alternative stay
// deterministic (empty D).
func BuildAttributeUncertainty(tab *vars.Table, schema rel.Schema, rows [][]AttrAlternatives, tid, prefix string) (*VerticalDecomposition, error) {
	if schema.Has(tid) {
		return nil, fmt.Errorf("urel: TID attribute %q collides with schema %v", tid, schema)
	}
	schema = schema.Clone()
	parts := make([]*Relation, len(schema))
	for j, attr := range schema {
		parts[j] = NewRelation(rel.NewSchema(tid, attr))
	}
	var (
		ids   []uint64
		probs []float64
		start = []int32{0}
		cells [][2]int // row and column of each variable
	)
	first := vars.Var(tab.Len())
	for i, row := range rows {
		if len(row) != len(schema) {
			return nil, fmt.Errorf("urel: row %d has %d attribute specs for schema %v", i, len(row), schema)
		}
		id := rel.Int(int64(i))
		for j, alts := range row {
			if len(alts.Values) == 0 || len(alts.Values) != len(alts.Probs) {
				return nil, fmt.Errorf("urel: row %d attribute %s has malformed alternatives", i, schema[j])
			}
			if len(alts.Values) == 1 {
				parts[j].Add(nil, rel.Tuple{id, alts.Values[0]})
				continue
			}
			v := first + vars.Var(len(ids))
			ids = append(ids, vars.RowID(prefix, i, j))
			probs = append(probs, alts.Probs...)
			start = append(start, int32(len(probs)))
			cells = append(cells, [2]int{i, j})
			for a, val := range alts.Values {
				parts[j].Add(vars.MustAssignment(vars.Binding{Var: v, Alt: int32(a)}), rel.Tuple{id, val})
			}
		}
	}
	tab.Register(ids, probs, start, &vars.Names{
		Var: func(k int) string { return fmt.Sprintf("%s[%d.%s]", prefix, cells[k][0], schema[cells[k][1]]) },
		Alt: func(k, a int) string { return rows[cells[k][0]][cells[k][1]].Values[a].String() },
	})
	return &VerticalDecomposition{Schema: schema, TID: tid, Parts: parts}, nil
}

// Size returns the total number of U-tuples across the parts — the
// representation cost of the decomposition.
func (v *VerticalDecomposition) Size() int {
	n := 0
	for _, p := range v.Parts {
		n += p.Len()
	}
	return n
}

// Joined materializes the represented relation as a single U-relation over
// the original schema (TID projected away): the natural join of the parts.
// Its size can be exponentially larger than Size(); it exists for
// cross-checks and for feeding operators that need the flat form.
func (v *VerticalDecomposition) Joined() *Relation {
	cur := v.Parts[0]
	for _, p := range v.Parts[1:] {
		cur = Join(cur, p)
	}
	// Project away the TID.
	out := NewRelation(v.Schema)
	idx := make([]int, len(v.Schema))
	for j, attr := range v.Schema {
		idx[j] = cur.Schema().Index(attr)
	}
	for _, ut := range cur.Tuples() {
		row := make(rel.Tuple, len(idx))
		for j, k := range idx {
			row[j] = ut.Row[k]
		}
		out.Add(ut.D, row)
	}
	return out
}
