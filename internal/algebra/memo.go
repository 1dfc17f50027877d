package algebra

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"repro/internal/urel"
	"repro/internal/vars"
)

// SubplanMemo is an engine-lifetime memo of estimator-free sub-plans:
// maximal sub-plans without conf or σ̂ whose every Base names a database
// relation or a let bound inside them. By Proposition 3.3 they evaluate
// exactly, as functions of the database alone, so one entry serves exact
// and approximate walks alike (WithMemo). Entries are immutable and shared
// by concurrent evaluations; their retained bytes (relation footprints plus
// variable descriptors) stay within the database's own footprint, least
// recently used out first.
type SubplanMemo struct {
	limit int64

	mu                     sync.Mutex
	m                      map[string]*list.Element
	lru                    list.List // front = most recently used
	bytes, hits, evictions int64
}

// memoEntry is one stored walk of a sub-plan.
type memoEntry struct {
	key    string
	res    URelResult
	vars   *varSet // registered by the sub-plan's repair-keys
	nextRK int     // the repair-key counter after the sub-plan
	ops    urel.StatsMap
	charge int64 // Σ ops bytes: what the walk charged the memory budget
}

// varSet is the variables a stored walk registered, retained once for all
// entries whose walks registered equal ones (one repair-key, many filters).
type varSet struct {
	infos       []vars.Info
	bytes, refs int64
}

// NewSubplanMemo returns an empty memo over db, which must not change while
// the memo is in use.
func NewSubplanMemo(db *urel.Database) *SubplanMemo {
	limit := infoBytes(db.Vars.Since(0))
	for _, r := range db.Rels {
		limit += r.Bytes()
	}
	return &SubplanMemo{limit: limit, m: make(map[string]*list.Element)}
}

// Stats reports the entries, their retained bytes, hits and evictions.
func (m *SubplanMemo) Stats() (entries int, bytes, hits, evictions int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m), m.bytes, m.hits, m.evictions
}

func (m *SubplanMemo) get(key string) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.m[key]
	if !ok {
		return nil
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*memoEntry)
}

// put stores p and the variables its walk registered, unless they alone
// exceed the bound or a concurrent walk stored p's key, and evicts to it.
func (m *SubplanMemo) put(p *memoEntry, infos []vars.Info) {
	vb := infoBytes(infos)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.m[p.key]; dup || p.res.Rel.Bytes()+vb > m.limit {
		return
	}
	p.vars = &varSet{infos: infos, bytes: vb}
	for el := m.lru.Front(); el != nil; el = el.Next() {
		if o := el.Value.(*memoEntry).vars; slices.EqualFunc(o.infos, infos, sameInfo) {
			p.vars = o
			break
		}
	}
	if p.vars.refs++; p.vars.refs == 1 {
		m.bytes += vb
	}
	m.m[p.key] = m.lru.PushFront(p)
	for m.bytes += p.res.Rel.Bytes(); m.bytes > m.limit; m.evictions++ {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.m, old.key)
		m.bytes -= old.res.Rel.Bytes()
		if old.vars.refs--; old.vars.refs == 0 {
			m.bytes -= old.vars.bytes
		}
	}
}

func sameInfo(a, b vars.Info) bool {
	return a.Name == b.Name && slices.Equal(a.Probs, b.Probs) && slices.Equal(a.AltNames, b.AltNames)
}

// infoBytes estimates the footprint of variable descriptors.
func infoBytes(infos []vars.Info) int64 {
	var n int64
	for _, in := range infos {
		n += 64 + int64(len(in.Name)+8*len(in.Probs))
		for _, a := range in.AltNames {
			n += 16 + int64(len(a))
		}
	}
	return n
}

// walkMemo evaluates node n, through the memo when the walker has one, no
// spill manager (a shed relation must never be shared), and n is free of
// conf and σ̂, closed (compile) and not a bare Base. The key, n's query in
// Go syntax (every field, strings quoted, floats exact) after the
// variable-table length and repair-key counter on entry, fixes the ids and
// names of the variables n registers and keys identical repair-key subtrees
// apart. A hit appends those variables verbatim and replays n's Ops and
// memory charge, unless the charge would trip the budget; a miss walks n
// through counters of its own, so concurrent branches cannot mix
// statistics, and stores the walk.
func (e *URelEvaluator) walkMemo(n *node) (URelResult, error) {
	if e.shared == nil || e.spill != nil || n.l == nil || n.facts&(holdsEst|closed) != closed {
		return e.evalNode(n)
	}
	key := fmt.Sprintf("%d %d %#v", e.db.Vars.Len(), e.nextRK, n.q)
	if p := e.shared.get(key); p != nil && (e.mem == nil || e.mem.Used()+p.charge <= e.mem.Limit()) {
		if p.nextRK != e.nextRK { // repair-keys: never beside a concurrent branch
			e.db.Vars.Append(p.vars.infos)
			e.nextRK = p.nextRK
		}
		e.ctrs.Add(p.ops)
		e.mem.Add(p.charge)
		return p.res, nil
	}
	rk, nv := e.nextRK, e.db.Vars.Len()
	w := *e
	w.shared, w.ctrs = nil, urel.NewCounters()
	w.exec = urel.NewExec(e.pool, w.ctrs).WithBudget(e.mem)
	res, err := w.evalNode(n)
	if err != nil {
		return URelResult{}, err
	}
	p := &memoEntry{key: key, res: res, nextRK: w.nextRK, ops: w.ctrs.Snapshot()}
	var infos []vars.Info
	if p.nextRK != rk {
		infos, e.nextRK = e.db.Vars.Since(nv), p.nextRK
	}
	for _, s := range p.ops {
		p.charge += s.Bytes
	}
	e.ctrs.Add(p.ops)
	e.shared.put(p, infos)
	return res, nil
}
