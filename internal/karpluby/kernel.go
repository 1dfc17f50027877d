package karpluby

import (
	"cmp"
	"math/rand"
	"slices"

	"repro/internal/dnf"
	"repro/internal/rel"
	"repro/internal/vars"
)

// The sampling kernel: one clause set compiled into flat arrays, and the
// one implementation of the Definition 4.1 trial that both the flat
// Estimator and the stratified StratumShard run.
//
// A kernel is built once per estimator and is read-only afterwards, so
// every shard of the estimator shares it. Everything a trial touches is a
// dense slice indexed by small integers: no map, no vars.Table lookup, no
// allocation.

// kernel is a clause set F compiled for sampling.
//
// Variables of F get dense local indices in content-canonical order: the
// rank of the variable's identity (vars.Info.ID) among vars(F). Clause literals are sorted
// by that index, and a trial extends its world in literal order, so the
// PRNG stream a trial consumes — and hence the estimate — depends only
// on the clause-set content and the table's distributions, never on the
// variable ids, i.e. never on the order variables happened to be
// registered in. This is what lets content-keyed caches share state
// across databases built in different orders.
//
// Clauses are held in the kernel's internal order: weight descending,
// ties by incoming position. Definition 4.1 only needs *some* fixed
// total order for its smallest-index rule; putting heavy clauses first
// means the drawn clause usually has a small index (it is drawn with
// probability ∝ weight), so few earlier clauses need testing, and those
// that do are the likeliest to be consistent, which ends the trial.
type kernel struct {
	// CSR clause layout: clause c's literals are
	// litVar/litAlt[clauseStart[c]:clauseStart[c+1]].
	clauseStart []int32
	litVar      []int32   // local variable index
	litAlt      []int32   // alternative the literal asserts
	weight      []float64 // p_f per clause

	// Variable v's cumulative alternative probabilities, without the
	// final entry (≈ 1; the last alternative is the fall-through), are
	// cumProb[varStart[v]:varStart[v+1]].
	varStart []int32
	cumProb  []float64
}

func (k *kernel) clauses() int { return len(k.weight) }

// certain reports whether F is the single empty clause (confidence 1).
func (k *kernel) certain() bool { return len(k.weight) == 1 && len(k.litVar) == 0 }

// compile builds the kernel for f. With dedup, duplicate clauses are
// dropped (first occurrence kept) and a clause set containing the empty
// assignment collapses to that one clause, as dnf.F.Dedup would; without,
// every clause of f is kept. order[p] is the incoming index of the clause
// at internal position p.
func compile(f dnf.F, table *vars.Table, dedup bool) (k *kernel, order []int32) {
	if dedup {
		for _, a := range f {
			if len(a) == 0 {
				f = dnf.F{a}
				break
			}
		}
	}
	n := len(f)
	nLit := 0
	for _, a := range f {
		nLit += len(a)
	}
	ids := make([]vars.Var, 0, nLit) // vars(F), ascending by id
	for _, a := range f {
		ids = a.Vars(ids)
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	nv := len(ids)
	nSlots := 0 // dedup hash table: a power of two ≥ 2n
	if dedup && n > 1 {
		for nSlots = 4; nSlots < 2*n; nSlots *= 2 {
		}
	}

	// Every temporary index array comes out of one allocation.
	buf := make([]int32, 2*nv+n+1+2*nLit+n+nSlots)
	carve := func(m int) []int32 {
		s := buf[:m:m]
		buf = buf[m:]
		return s
	}

	// byID[r] indexes the ids entry of local index r; local is its
	// inverse.
	byID, local := carve(nv), carve(nv)
	for i := range byID {
		byID[i] = int32(i)
	}
	slices.SortFunc(byID, func(a, b int32) int {
		return cmp.Compare(table.Info(ids[a]).ID, table.Info(ids[b]).ID)
	})
	for r, i := range byID {
		local[i] = int32(r)
	}

	// Literal runs in incoming clause order, each sorted by local index;
	// weights are products in that order, so they are content-canonical
	// to the last bit too.
	start, lv, la := carve(n+1), carve(nLit), carve(nLit)
	w := make([]float64, n)
	for c, a := range f {
		o := int(start[c])
		for j, b := range a {
			i, _ := slices.BinarySearch(ids, b.Var)
			lv[o+j], la[o+j] = local[i], b.Alt
		}
		start[c+1] = int32(o + len(a))
		sortRun(lv[o:o+len(a)], la[o:o+len(a)])
		p := 1.0
		for l := o; l < o+len(a); l++ {
			p *= table.Prob(ids[byID[lv[l]]], int(la[l]))
		}
		w[c] = p
	}
	run := func(c int32) (v, a []int32) {
		return lv[start[c]:start[c+1]], la[start[c]:start[c+1]]
	}

	// Dedup on the sorted runs: open addressing keyed by the run's hash,
	// a full compare on every occupied probe.
	order = carve(n)[:0]
	slots := carve(nSlots) // clause index + 1; 0 is empty
	for c := int32(0); c < int32(n); c++ {
		if nSlots > 0 {
			cv, ca := run(c)
			h := rel.HashSeed
			for l := range cv {
				h = rel.HashCombine(h, uint64(uint32(cv[l]))<<32|uint64(uint32(ca[l])))
			}
			p := int(h) & (nSlots - 1)
			for ; slots[p] != 0; p = (p + 1) & (nSlots - 1) {
				if ov, oa := run(slots[p] - 1); slices.Equal(ov, cv) && slices.Equal(oa, ca) {
					break
				}
			}
			if slots[p] != 0 {
				continue // duplicate of an earlier clause
			}
			slots[p] = c + 1
		}
		order = append(order, c)
	}

	// Internal order: weight descending, ties by incoming position.
	slices.SortFunc(order, func(a, b int32) int {
		if w[a] != w[b] {
			return cmp.Compare(w[b], w[a])
		}
		return cmp.Compare(a, b)
	})

	// The kernel's arrays: one int32 and one float64 allocation.
	nLit = 0
	for _, c := range order {
		nLit += int(start[c+1] - start[c])
	}
	nCum := 0
	for _, v := range ids {
		nCum += table.DomSize(v) - 1
	}
	buf = make([]int32, len(order)+1+2*nLit+nv+1)
	fbuf := make([]float64, len(order)+nCum)
	k = &kernel{
		clauseStart: carve(len(order) + 1),
		litVar:      carve(nLit)[:0],
		litAlt:      carve(nLit)[:0],
		varStart:    carve(nv + 1),
		weight:      fbuf[:len(order):len(order)],
		cumProb:     fbuf[len(order):],
	}
	for p, c := range order {
		cv, ca := run(c)
		k.litVar = append(k.litVar, cv...)
		k.litAlt = append(k.litAlt, ca...)
		k.clauseStart[p+1] = int32(len(k.litVar))
		k.weight[p] = w[c]
	}
	for r, i := range byID {
		probs := table.Info(ids[i]).Probs
		o := int(k.varStart[r])
		acc := 0.0
		for a, p := range probs[:len(probs)-1] {
			acc += p
			k.cumProb[o+a] = acc
		}
		k.varStart[r+1] = int32(o + len(probs) - 1)
	}
	return k, order
}

// sortRun sorts one clause's literals by local variable index (insertion
// sort: clauses are short and arrive nearly sorted).
func sortRun(v, a []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// draw is the distribution a trial draws its clause from: a set of
// clauses of one kernel — all of them for the flat estimator, one weight
// band for a stratum — each with probability p_f/m.
type draw struct {
	pos []int32   // internal clause positions, ascending
	cum []float64 // cum[i] = Σ weight[pos[0..i]]
	m   float64   // total weight: M for all of F, M_j for a stratum
}

// newDraw builds the draw over the clauses at the given internal
// positions (sorted in place).
func (k *kernel) newDraw(pos []int32) draw {
	slices.Sort(pos)
	d := draw{pos: pos, cum: make([]float64, len(pos))}
	for i, p := range pos {
		d.m += k.weight[p]
		d.cum[i] = d.m
	}
	return d
}

// sampler runs trials of one draw on its own PRNG and scratch world and
// counts the outcomes. Estimator and StratumShard are both a sampler plus
// bookkeeping, which is why a one-stratum plan is bit-identical to the
// flat estimator: the same code over equal arrays.
//
// The world is epoch-stamped: world[v].alt is variable v's sampled
// alternative iff world[v].stamp == epoch, so starting a new trial's
// world is epoch++ (and a full clear only when the 32-bit epoch wraps).
type sampler struct {
	k   *kernel
	d   *draw
	rng *rand.Rand

	world []cell
	epoch uint32

	hits   int64 // Σ X_i
	trials int64 // m
}

// cell is one variable of a sampler's world.
type cell struct {
	stamp uint32
	alt   int32
}

// newSampler returns a sampler drawing from rng; a nil rng makes a
// merge-only sampler, which gets no world.
func newSampler(k *kernel, d *draw, rng *rand.Rand) sampler {
	s := sampler{k: k, d: d, rng: rng}
	if rng != nil {
		s.world = make([]cell, len(k.varStart)-1)
	}
	return s
}

// Hits returns the number of successful trials Σ X_i so far.
func (s *sampler) Hits() int64 { return s.hits }

// Trials returns the number of trials run so far.
func (s *sampler) Trials() int64 { return s.trials }

// Add runs n more trials.
func (s *sampler) Add(n int) {
	for i := 0; i < n; i++ {
		s.hits += s.trial()
	}
	s.trials += int64(n)
}

// trial runs one Karp–Luby trial (Definition 4.1) and returns 0 or 1:
// draw a clause f with probability p_f/m, extend it to a random world f*,
// and return 1 iff no clause before f in the kernel's order — over all of
// F, also when drawing from a stratum — is consistent with f*.
//
// f* is extended lazily (deferred decisions): a variable is sampled the
// first time a clause under test mentions it, then keeps that value for
// the rest of the trial. Each variable is still drawn at most once, from
// its marginal, independently of all others, and whether an earlier
// clause is consistent is a function of the variables that get looked at
// only — so the outcome has exactly the distribution of the eager
// "sample every variable, then test" transcription, while most trials
// stop at the first mismatching literal of a few clauses and never look
// at most variables.
func (s *sampler) trial() int64 {
	k := s.k
	// Step 1: choose f with probability p_f/m.
	cum := s.d.cum
	u := s.rng.Float64() * s.d.m
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	idx := int(s.d.pos[lo])

	// Step 2: a fresh world holding the chosen clause's bindings.
	s.epoch++
	if s.epoch == 0 {
		clear(s.world)
		s.epoch = 1
	}
	epoch, world := s.epoch, s.world
	for l := k.clauseStart[idx]; l < k.clauseStart[idx+1]; l++ {
		world[k.litVar[l]] = cell{epoch, k.litAlt[l]}
	}

	// Step 3: 1 iff f is the smallest-index clause consistent with f*.
earlier:
	for c := 0; c < idx; c++ {
		for l := k.clauseStart[c]; l < k.clauseStart[c+1]; l++ {
			v := k.litVar[l]
			if world[v].stamp != epoch {
				world[v] = cell{epoch, k.sampleAlt(v, s.rng)}
			}
			if world[v].alt != k.litAlt[l] {
				continue earlier
			}
		}
		return 0
	}
	return 1
}

// sampleAlt draws an alternative of v from its marginal. A variable with
// a single alternative consumes no randomness.
func (k *kernel) sampleAlt(v int32, rng *rand.Rand) int32 {
	lo, hi := k.varStart[v], k.varStart[v+1]
	if lo == hi {
		return 0
	}
	u := rng.Float64()
	for a := lo; a < hi; a++ {
		if u < k.cumProb[a] {
			return a - lo
		}
	}
	return hi - lo
}
