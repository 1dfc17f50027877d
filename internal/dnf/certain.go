package dnf

import "repro/internal/vars"

// Certainty proof: deciding P = 1 — the paper's cert — without a sample or
// a float sum. A certain clause set is the "true" leaf of Olteanu, Huang
// and Koch's d-trees (ICDE 2010): every world extends some clause. Its
// confidence is exactly 1, which a Karp–Luby estimate only approaches and
// a Shannon sum only rounds to.

// certainBudget is how many nodes — bindings of one variable to one
// alternative — Certain expands before it gives up. Lineage that is
// certain because a repair-key group's alternatives are all kept needs
// about one node per alternative of the groups it splits on: the conf-flat
// benchmark's two groups, of 15 and 18 clauses, are proved in 0 and 27
// nodes. A set that is not certain spends at most the budget, a bounded
// walk over its occurrence lists (BenchmarkCertain).
const certainBudget = 64

// certainSlack is how far below 1 the weight sum M = Σ p_f may fall by
// rounding on a certain set. Since p ≤ M, a set with M < 1 − certainSlack
// is not certain, and Certain returns before it compiles anything.
const certainSlack = 1e-9

// Certain reports whether every world extends some clause of f, by a sound
// and budgeted case split. A literal on a one-alternative variable is true
// in every world, so a clause holding only such literals proves f at once.
// Otherwise Certain binds the open variable that occurs in the most live
// clauses (ties to the smallest variable id) to each of its alternatives
// in turn: a branch closes when a live clause has every literal true, and
// the proof gives up — false — as soon as a branch has no live clause
// left or certainBudget nodes are spent. The outcome is a function of the
// clause set and the table, not of the clause order.
//
// f is compiled once into dense arrays — clause literals, per-variable
// occurrence lists — and the case split walks one world vector, updating
// per-clause counters on each binding and undoing them on the way back:
// no node copies anything, and a call makes one allocation whatever the
// size of f.
func Certain(f F, t *vars.Table) bool {
	m, nLit := 0.0, 0
	for _, a := range f {
		if len(a) == 0 {
			return true
		}
		m += a.Weight(t)
		nLit += len(a)
	}
	if m < 1-certainSlack {
		return false
	}
	var p prover
	if p.compile(f, t, nLit) {
		return true
	}
	return p.prove()
}

// prover is a clause set compiled for Certain. Variables get dense local
// indices in order of first occurrence; literals on one-alternative
// variables are dropped, being true in every world.
type prover struct {
	// Clause c's literals are the local variables
	// litVar[start[c]:start[c+1]].
	start, litVar []int32
	// Variable v occurs in clauses occClause[occStart[v]:occStart[v+1]],
	// bound to alternative occAlt[...] there.
	occStart, occClause, occAlt []int32

	id, dom []int32 // per variable: its id and domain size
	// The variables by occurrence count, descending. A variable's live
	// count never exceeds its occurrence count, so pick stops at the first
	// variable whose occurrences fall below the best live count.
	byCount []int32

	world []int32 // bound alternative per variable; -1 while open
	open  []int32 // per clause: literals not yet bound true
	kills []int32 // per clause: literals bound false; 0 while live
	cnt   []int32 // per variable: live clauses holding it
	live  int     // live clauses
	nodes int     // bindings made
}

// compile fills p from f, which holds nLit literals and no empty clause,
// and reports whether a clause of f is true in every world.
func (p *prover) compile(f F, t *vars.Table, nLit int) bool {
	n := len(f)
	nSlots := 4 // variable lookup table: a power of two ≥ 2·nLit
	for nSlots < 2*nLit {
		nSlots *= 2
	}
	buf := make([]int32, nSlots+4*n+2+(nLit+1)+9*nLit)
	carve := func(m int) []int32 {
		s := buf[:m:m]
		buf = buf[m:]
		return s
	}
	slots := carve(nSlots) // local index + 1; 0 is empty
	p.start, p.litVar = carve(n+1), carve(nLit)[:0]
	litAlt := carve(nLit)[:0]
	p.occClause, p.occAlt = carve(nLit), carve(nLit)
	p.open, p.kills = carve(n), carve(n)
	p.occStart = carve(nLit + 1)
	p.id, p.dom, p.world, p.cnt = carve(nLit)[:0], carve(nLit)[:0], carve(nLit), carve(nLit)
	p.byCount = carve(nLit)
	rank := carve(n + 1) // counting sort of the variables by n − count

	for c, a := range f {
		for _, b := range a {
			d := t.DomSize(b.Var)
			if d == 1 {
				continue
			}
			s := int(uint32(b.Var)*0x9e3779b1) & (nSlots - 1)
			for slots[s] != 0 && p.id[slots[s]-1] != int32(b.Var) {
				s = (s + 1) & (nSlots - 1)
			}
			if slots[s] == 0 {
				p.id, p.dom = append(p.id, int32(b.Var)), append(p.dom, int32(d))
				slots[s] = int32(len(p.id))
			}
			p.litVar, litAlt = append(p.litVar, slots[s]-1), append(litAlt, b.Alt)
		}
		p.start[c+1] = int32(len(p.litVar))
		if p.start[c+1] == p.start[c] {
			return true
		}
		p.open[c] = p.start[c+1] - p.start[c]
	}

	// Occurrence lists by counting sort; every clause is live, so a
	// variable's count of live clauses is its occurrence count.
	nv := len(p.id)
	p.occStart, p.world, p.cnt = p.occStart[:nv+1], p.world[:nv], p.cnt[:nv]
	for _, v := range p.litVar {
		p.occStart[v+1]++
	}
	for v := 0; v < nv; v++ {
		p.occStart[v+1] += p.occStart[v]
		p.world[v] = -1
	}
	for c := int32(0); c < int32(n); c++ {
		for l := p.start[c]; l < p.start[c+1]; l++ {
			v := p.litVar[l]
			o := p.occStart[v] + p.cnt[v]
			p.occClause[o], p.occAlt[o] = c, litAlt[l]
			p.cnt[v]++
		}
	}
	p.byCount = p.byCount[:nv]
	for _, c := range p.cnt {
		rank[int32(n)-c+1]++
	}
	for r := 1; r <= n; r++ {
		rank[r] += rank[r-1]
	}
	for v, c := range p.cnt {
		p.byCount[rank[int32(n)-c]] = int32(v)
		rank[int32(n)-c]++
	}
	p.live = n
	return false
}

// prove reports whether every extension of the current world extends a
// live clause, within the node budget.
func (p *prover) prove() bool {
	if p.live == 0 {
		return false
	}
	v := p.pick()
	for a := int32(0); a < p.dom[v]; a++ {
		if p.nodes++; p.nodes > certainBudget {
			return false
		}
		if !p.bind(v, a) && !p.prove() {
			return false
		}
		p.unbind(v, a)
	}
	return true
}

// pick returns the open variable occurring in the most live clauses, ties
// to the smallest id. Some live clause has an open literal — one without
// would have closed the branch — so the count is positive.
func (p *prover) pick() int32 {
	best := int32(-1)
	for _, v := range p.byCount {
		if best >= 0 && p.occStart[v+1]-p.occStart[v] < p.cnt[best] {
			break
		}
		n := p.cnt[v]
		if p.world[v] >= 0 || n == 0 {
			continue
		}
		if best < 0 || n > p.cnt[best] || n == p.cnt[best] && p.id[v] < p.id[best] {
			best = v
		}
	}
	return best
}

// bind sets variable v to alternative a and reports whether a live clause
// now has every literal true. It updates every counter, so unbind can
// restore them.
func (p *prover) bind(v, a int32) bool {
	p.world[v] = a
	closed := false
	for o := p.occStart[v]; o < p.occStart[v+1]; o++ {
		c := p.occClause[o]
		if p.occAlt[o] == a {
			p.open[c]--
			closed = closed || p.open[c] == 0 && p.kills[c] == 0
			continue
		}
		if p.kills[c]++; p.kills[c] == 1 {
			p.live--
			p.count(c, -1)
		}
	}
	return closed
}

// unbind undoes bind(v, a).
func (p *prover) unbind(v, a int32) {
	for o := p.occStart[v]; o < p.occStart[v+1]; o++ {
		c := p.occClause[o]
		if p.occAlt[o] == a {
			p.open[c]++
			continue
		}
		if p.kills[c]--; p.kills[c] == 0 {
			p.live++
			p.count(c, 1)
		}
	}
	p.world[v] = -1
}

// count adds d to the live-clause count of clause c's open variables.
func (p *prover) count(c, d int32) {
	for _, u := range p.litVar[p.start[c]:p.start[c+1]] {
		if p.world[u] < 0 {
			p.cnt[u] += d
		}
	}
}
