package pdb

import (
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rel"
)

// legacyKey is rel.Tuple.Key as it was built before Tuple.AppendKey: one
// string per value, escaped and joined.
func legacyKey(t rel.Tuple) string {
	var b strings.Builder
	for i, v := range t {
		if i > 0 {
			b.WriteByte('|')
		}
		var k string
		switch v.Kind() {
		case rel.NullKind:
			k = "n"
		case rel.BoolKind:
			k = map[bool]string{true: "b1", false: "b0"}[v.AsBool()]
		case rel.IntKind, rel.FloatKind:
			f := v.AsFloat()
			if f == 0 {
				f = 0
			}
			k = "f" + strconv.FormatFloat(f, 'g', -1, 64)
		default:
			k = "s" + v.AsString()
		}
		k = strings.ReplaceAll(k, `\`, `\\`)
		b.WriteString(strings.ReplaceAll(k, "|", `\|`))
	}
	return b.String()
}

// legacyOrder is the row order by condition, then legacyKey string.
type legacyOrder struct {
	rows []Row
	keys []string
}

func (o legacyOrder) Len() int { return len(o.rows) }
func (o legacyOrder) Less(i, j int) bool {
	if o.rows[i].cond != o.rows[j].cond {
		return o.rows[i].cond < o.rows[j].cond
	}
	return o.keys[i] < o.keys[j]
}
func (o legacyOrder) Swap(i, j int) {
	o.rows[i], o.rows[j] = o.rows[j], o.rows[i]
	o.keys[i], o.keys[j] = o.keys[j], o.keys[i]
}

// TestRowOrderUnchanged: over random tuples — strings holding '|' and '\',
// numerics equal across int and float, ±0, NaN, ±Inf, NULLs — AppendKey
// appends exactly the former Key string, and sortRows leaves the rows in
// exactly the order the former string-keyed sort did, ties included.
func TestRowOrderUnchanged(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 2))
	strs := []string{"", "a", "a|b", `a\b`, `\|`, "|", `\`, "a|", `|\`, "s", "f1", "b0", "n", "é", "\xff"}
	nums := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1e21, 1e-7, math.NaN(), math.Inf(1), math.Inf(-1)}
	value := func() rel.Value {
		switch r.IntN(6) {
		case 0:
			return rel.Null()
		case 1:
			return rel.Bool(r.IntN(2) == 0)
		case 2:
			return rel.Int(int64(r.IntN(3)) - 1)
		case 3:
			return rel.Float(nums[r.IntN(len(nums))])
		default:
			return rel.String(strs[r.IntN(len(strs))])
		}
	}
	conds := []string{"", "", "1=0", "1=1", "1=0,2=1"}
	for trial := 0; trial < 500; trial++ {
		res := &Result{}
		width := 1 + r.IntN(3)
		for i := 0; i < r.IntN(80); i++ {
			tup := make(rel.Tuple, width)
			for k := range tup {
				tup[k] = value()
			}
			if got, want := string(tup.AppendKey([]byte("x"))[1:]), legacyKey(tup); got != want {
				t.Fatalf("%v: AppendKey %q, Key was %q", tup, got, want)
			}
			res.rows = append(res.rows, Row{res: res, vals: tup, cond: conds[r.IntN(len(conds))]})
		}
		want := legacyOrder{append([]Row(nil), res.rows...), make([]string, len(res.rows))}
		for i, row := range want.rows {
			want.keys[i] = legacyKey(row.vals)
		}
		sort.Sort(want)
		res.sortRows()
		for i := range want.rows {
			if &res.rows[i].vals[0] != &want.rows[i].vals[0] {
				t.Fatalf("trial %d: row %d is %v [%s], the string sort put %v [%s] there",
					trial, i, res.rows[i].vals, res.rows[i].cond, want.rows[i].vals, want.rows[i].cond)
			}
		}
	}
}

// TestRowOrderLastColumnTies: rows that tie on every column but the last
// (whose keys may be proper prefixes of one another across trials), under
// one condition or two, are ordered by their last column as the
// string-keyed sort ordered them.
func TestRowOrderLastColumnTies(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 4))
	lasts := []rel.Value{rel.Null(), rel.Bool(true), rel.Int(2), rel.Float(-0.5), rel.Float(math.NaN()),
		rel.String(""), rel.String("a|b"), rel.String(`a\`), rel.String("|"), rel.String("b")}
	for trial := 0; trial < 200; trial++ {
		res := &Result{}
		width := 1 + r.IntN(3)
		head := make(rel.Tuple, width-1)
		for k := range head {
			head[k] = rel.String([]string{"x", "x|", `x\`}[r.IntN(3)])
		}
		for i := 0; i < 2+r.IntN(40); i++ {
			tup := append(head.Clone(), lasts[r.IntN(len(lasts))])
			res.rows = append(res.rows, Row{res: res, vals: tup, cond: []string{"", "1=0"}[r.IntN(2)]})
		}
		want := legacyOrder{append([]Row(nil), res.rows...), make([]string, len(res.rows))}
		for i, row := range want.rows {
			want.keys[i] = legacyKey(row.vals)
		}
		sort.Sort(want)
		res.sortRows()
		for i := range want.rows {
			if &res.rows[i].vals[0] != &want.rows[i].vals[0] {
				t.Fatalf("trial %d: row %d is %v [%s], the string sort put %v [%s] there",
					trial, i, res.rows[i].vals, res.rows[i].cond, want.rows[i].vals, want.rows[i].cond)
			}
		}
	}
}
