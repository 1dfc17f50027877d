package algebra

import (
	"container/list"
	"testing"

	"repro/internal/rel"
	"repro/internal/urel"
)

// memoRel is a complete one-column relation of n rows.
func memoRel(n int) (*urel.Relation, []rel.Tuple) {
	r := urel.NewRelation(rel.NewSchema("A"))
	rows := make([]rel.Tuple, n)
	for i := range rows {
		rows[i] = rel.Tuple{rel.Int(int64(i))}
		r.AddOwned(nil, rows[i])
	}
	return r, rows
}

// TestMemoConfNeverEvictsItsInput: P values kept beside an entry are
// charged to it and evict other entries — even more recently used ones —
// but never the entry itself, and P values that would outgrow the bound
// with their entry alone are not kept.
func TestMemoConfNeverEvictsItsInput(t *testing.T) {
	a, rows := memoRel(40)
	b, _ := memoRel(40)
	m := &SubplanMemo{limit: a.Bytes() + b.Bytes() + 200, m: make(map[string]*list.Element)}
	pa := &memoEntry{key: "a", res: URelResult{Rel: a}}
	pb := &memoEntry{key: "b", res: URelResult{Rel: b}}
	if !m.put(pa, nil) || !m.put(pb, nil) {
		t.Fatal("fixture: both entries must fit")
	}
	kp := keptP{p: make([]float64, len(rows)), kept: "counts"}
	m.putConf(pa, "key", rows, nil, kp) // pa is the least recently used
	if entries, bytes, _, evictions := m.Stats(); entries != 1 || evictions != 1 || bytes != pa.size || bytes > m.limit {
		t.Fatalf("%d entries, %d bytes (entry %d, bound %d), %d evictions: want pa alone, its P values charged",
			entries, bytes, pa.size, m.limit, evictions)
	}
	if got, ok := m.conf(pa, "key", nil); !ok || len(pa.rows) != len(rows) || got.kept != "counts" {
		t.Fatalf("the kept P values are not answered: ok=%v", ok)
	}
	if _, ok := m.conf(pa, "other key", nil); ok {
		t.Error("a key never kept is answered")
	}

	tight := &SubplanMemo{limit: a.Bytes() + 100, m: make(map[string]*list.Element)}
	pa = &memoEntry{key: "a", res: URelResult{Rel: a}}
	tight.put(pa, nil)
	tight.putConf(pa, "key", rows, nil, kp)
	if entries, bytes, _, evictions := tight.Stats(); entries != 1 || bytes != a.Bytes() || evictions != 0 {
		t.Errorf("over-bound P values: %d entries, %d bytes, %d evictions, want the bare entry", entries, bytes, evictions)
	}
	if _, ok := tight.conf(pa, "key", nil); ok {
		t.Error("P values that outgrow the bound were kept")
	}
}
