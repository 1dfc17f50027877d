package algebra

import (
	"container/list"
	"fmt"
	"slices"
	"sync"

	"repro/internal/rel"
	"repro/internal/urel"
	"repro/internal/vars"
)

// SubplanMemo is an engine-lifetime memo of estimator-free sub-plans:
// maximal sub-plans without conf or σ̂ whose every Base names a database
// relation or a let bound inside them. By Proposition 3.3 they evaluate
// exactly, as functions of the database alone, so one entry serves exact
// and approximate walks alike (WithMemo). Beside its relation an entry may
// keep the P values of a conf over it (see confP). Entries are shared by
// concurrent evaluations; their retained bytes (relation footprints, kept P
// values, variable descriptors) stay within the database's own footprint,
// least recently used out first.
type SubplanMemo struct {
	limit int64

	mu                     sync.Mutex
	m                      map[string]*list.Element
	lru                    list.List // front = most recently used
	bytes, hits, evictions int64
}

// memoEntry is one stored walk of a sub-plan. A conf over it keeps, from
// the first it keeps, res's rows in lineage order, the lineage Ops and their
// bytes, and per ConfKey a P vector (confP); set under the memo's lock and
// never changed after.
type memoEntry struct {
	key      string
	el       *list.Element // in the LRU list
	res      URelResult
	vars     *varSet // registered by the sub-plan's repair-keys
	nextRK   int     // the repair-key counter after the sub-plan
	ops      urel.StatsMap
	charge   int64 // Σ ops bytes: what the walk charged the memory budget
	size     int64 // retained bytes: res's, rows' and P vectors'
	rows     []rel.Tuple
	rowOps   urel.StatsMap
	rowBytes int64
	confs    map[any]keptP
}

// keptP is one conf batch's P values and what replaying it counts
// (Estimators.Replay).
type keptP struct {
	p    []float64
	kept any
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

// get returns key's entry when its replay fits the memory budget mem (nil:
// none), counting the hit and moving the entry to the LRU front; a refused
// replay is neither.
func (m *SubplanMemo) get(key string, mem *urel.MemBudget) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.m[key]
	if !ok {
		return nil
	}
	p := el.Value.(*memoEntry)
	if mem != nil && mem.Used()+p.charge > mem.Limit() {
		return nil
	}
	m.hits++
	m.lru.MoveToFront(el)
	return p
}

// put stores p, its relation compacted (urel.Relation.Compact), and the
// variables its walk registered, unless they alone exceed the bound or a
// concurrent walk stored p's key, and evicts to it. It reports whether p
// was stored.
func (m *SubplanMemo) put(p *memoEntry, infos []vars.Info) bool {
	vb := infoBytes(infos)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.m[p.key]; dup || p.res.Rel.Bytes()+vb > m.limit {
		return false
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
	p.res.Rel = p.res.Rel.Compact() // retain what is charged, not the slabs it shares
	p.el = m.lru.PushFront(p)
	m.m[p.key] = p.el
	p.size = p.res.Rel.Bytes()
	m.bytes += p.size
	m.evict()
	return true
}

// evict drops least recently used entries, and the P vectors they keep,
// until the memo is within its bound.
func (m *SubplanMemo) evict() {
	for ; m.bytes > m.limit; m.evictions++ {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.m, old.key)
		m.bytes -= old.size
		if old.vars.refs--; old.vars.refs == 0 {
			m.bytes -= old.vars.bytes
		}
	}
}

// conf returns the P values p keeps under key when p is in the memo and
// their replay fits the memory budget mem, counting the hit and moving p to
// the LRU front.
func (m *SubplanMemo) conf(p *memoEntry, key any, mem *urel.MemBudget) (keptP, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	kp, ok := p.confs[key]
	if !ok || m.m[p.key] != p.el || mem != nil && mem.Used()+p.rowBytes > mem.Limit() {
		return keptP{}, false
	}
	m.hits++
	m.lru.MoveToFront(p.el)
	return kp, true
}

// putConf keeps kp under key beside p's relation, charged to p (a row header
// per row, eight bytes per P value, 64 per slot), unless p left the memo,
// keeps key already or would outgrow the bound alone. It evicts other
// entries to the bound, never p: p moves to the front first.
func (m *SubplanMemo) putConf(p *memoEntry, key any, rows []rel.Tuple, ops urel.StatsMap, kp keptP) {
	m.mu.Lock()
	defer m.mu.Unlock()
	grow := 8*int64(len(kp.p)) + 64
	if p.confs == nil {
		grow += 24*int64(len(rows)) + 64
	}
	if _, dup := p.confs[key]; dup || m.m[p.key] != p.el || p.size+grow+p.vars.bytes > m.limit {
		return
	}
	if p.confs == nil {
		p.rows, p.rowOps, p.confs = rows, ops, make(map[any]keptP)
		for _, s := range ops {
			p.rowBytes += s.Bytes
		}
	}
	p.confs[key] = kp
	p.size += grow
	m.bytes += grow
	m.lru.MoveToFront(p.el)
	m.evict()
}

func sameInfo(a, b vars.Info) bool {
	return a.ID == b.ID && slices.Equal(a.Probs, b.Probs)
}

// infoBytes estimates the footprint of variable descriptors: the
// descriptor, its probabilities, and the index its registration's
// renderer keeps per variable and per alternative.
func infoBytes(infos []vars.Info) int64 {
	var n int64
	for _, in := range infos {
		n += 60 + 12*int64(len(in.Probs))
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
// through counters of its own, whose statistics the entry keeps, and
// stores the walk. A result in the memo names its entry
// (URelResult.memo), where a conf over it keeps its P values.
func (e *URelEvaluator) walkMemo(n *node) (URelResult, error) {
	if e.shared == nil || e.spill != nil || n.l == nil || n.facts&(holdsEst|closed) != closed {
		return e.evalNode(n)
	}
	key := fmt.Sprintf("%d %d %#v", e.db.Vars.Len(), e.nextRK, n.q)
	if p := e.shared.get(key, e.mem); p != nil {
		if p.nextRK != e.nextRK { // n registered repair-key variables
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
	if p.res.memo = p; e.shared.put(p, infos) {
		res = p.res
	}
	return res, nil
}

// confP returns in's distinct data tuples in lineage order and their
// estimates. Over a memoised input, P kept under the Estimators' ConfKey —
// an all-exact batch's first, then a sampled one's — answer, replaying the
// lineage Ops, charge and Stats (Replay); otherwise the grouping counts
// apart, as in a walkMemo miss, and the entry keeps what the Estimates
// allow (Kept) under the key that fixes them.
func (e *URelEvaluator) confP(in URelResult) ([]rel.Tuple, Estimates, error) {
	p := in.memo
	if p == nil {
		rows, est, err := e.estimate([]*urel.Relation{in.Rel}, false)
		return rows[0], est, err
	}
	exactKey, key := e.est.ConfKey(true), e.est.ConfKey(false)
	kp, ok := e.shared.conf(p, exactKey, e.mem)
	if !ok && key != exactKey {
		kp, ok = e.shared.conf(p, key, e.mem)
	}
	if ok {
		e.ctrs.Add(p.rowOps)
		e.mem.Add(p.rowBytes)
		e.est.Replay(kp.kept)
		return p.rows, keptEstimates{p: kp.p}, nil
	}
	w := *e
	w.ctrs = urel.NewCounters()
	w.exec = urel.NewExec(e.pool, w.ctrs).WithBudget(e.mem)
	rows, est, err := w.estimate([]*urel.Relation{in.Rel}, false)
	ops := w.ctrs.Snapshot()
	e.ctrs.Add(ops)
	if err != nil {
		return nil, nil, err
	}
	if kept, exact, ok := est.Kept(); ok {
		ps := make([]float64, len(rows[0]))
		for i := range ps {
			ps[i] = est.P(0, i)
		}
		if exact {
			key = exactKey
		}
		e.shared.putConf(p, key, rows[0], ops, keptP{ps, kept})
	}
	return rows[0], est, nil
}

// keptEstimates is a conf batch the memo answered: its P values. It is
// never asked to Decide, for a Round or for Kept, which the nil Estimates
// it embeds would fail.
type keptEstimates struct {
	Estimates
	p []float64
}

func (k keptEstimates) P(_, i int) float64 { return k.p[i] }
