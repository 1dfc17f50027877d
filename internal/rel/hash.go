package rel

import (
	"math"
	"strings"
	"sync"
)

// 64-bit hashing of values and tuples. Every identity the engine decides
// during evaluation — set-semantics dedup, join build–probe, lineage
// grouping, repair-key groups, clause dedup, the Lemma 6.4 annotations —
// is one of these hashes looked up in an Index (index.go) and confirmed by
// value equality (Compare), which is deterministic; hashing never
// allocates. The canonical Key() strings are not on that path: they remain
// for display, the public result order, the possible-worlds reference
// evaluator and the corpus generator.
//
// The hash respects Compare-equality: values that are Equal hash
// identically — Int(1) and Float(1) collide because numerics hash their
// widened float64 bits, and ±0 and all NaN payloads are canonicalized
// first, exactly as Compare and Key() identify them.

const (
	hashOffset64 uint64 = 14695981039346656037 // FNV-1a offset basis
	hashPrime64  uint64 = 1099511628211        // FNV-1a prime
)

// HashSeed is the initial accumulator for the running hashes below.
const HashSeed uint64 = hashOffset64

// Mix64 is the SplitMix64 finalizer (Steele et al.): a cheap bijective
// 64-bit mixer used to spread word-sized inputs across the hash space.
// It is the one copy of the primitive — the scheduler's seed derivation
// (sched.TaskSeedWords/ChunkSeed) builds on it too.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashCombine folds a 64-bit word into a running hash. It is the one
// combination primitive shared by the value, tuple, and assignment hashes,
// so cross-package composites (e.g. urel's (D, row) pair hash) stay
// consistent.
func HashCombine(h, x uint64) uint64 {
	return (h ^ Mix64(x)) * hashPrime64
}

// hashString folds a string's bytes into a running hash (FNV-1a step).
func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= hashPrime64
	}
	return h
}

// HashString is the exported form of the FNV-1a string fold, for composite
// hashes built outside this package (e.g. the engine's lineage-content
// fingerprints, which fold variable names and probabilities into one hash
// family with the value/tuple hashes).
func HashString(h uint64, s string) uint64 { return hashString(h, s) }

// Hash folds the value into a running hash without allocating. Values that
// are Equal (under Compare) hash identically; see the package comment on
// numeric widening.
func (v Value) Hash(h uint64) uint64 {
	switch v.kind {
	case NullKind:
		return HashCombine(h, 0)
	case BoolKind:
		return HashCombine(h, 2+v.n) // false 2, true 3
	case IntKind, FloatKind:
		f := v.AsFloat()
		if f == 0 {
			f = 0 // collapse -0.0 onto +0.0: Compare treats them as equal
		}
		bits := math.Float64bits(f)
		if f != f {
			bits = 0x7ff8000000000001 // canonical NaN: payloads compare equal
		}
		return HashCombine(HashCombine(h, 4), bits)
	case StringKind:
		return hashString(HashCombine(h, 5), v.s)
	default:
		return HashCombine(h, uint64(v.kind))
	}
}

// Hash returns a 64-bit hash of the whole tuple, consistent with
// value-equality: t.Equal(u) implies t.Hash() == u.Hash().
func (t Tuple) Hash() uint64 {
	h := HashSeed
	for _, v := range t {
		h = v.Hash(h)
	}
	return h
}

// HashAt hashes the sub-tuple at the given positions — the allocation-free
// replacement for building a key string over join columns.
func (t Tuple) HashAt(idx []int) uint64 {
	h := HashSeed
	for _, j := range idx {
		h = t[j].Hash(h)
	}
	return h
}

// EqualAt reports whether two tuples agree (under value equality) on the
// given column positions of each.
func (t Tuple) EqualAt(tIdx []int, u Tuple, uIdx []int) bool {
	for i := range tIdx {
		if !Equal(t[tIdx[i]], u[uIdx[i]]) {
			return false
		}
	}
	return true
}

// Interner is a value-interning table: it canonicalizes string payloads so
// that repeated occurrences (CSV columns, categorical attributes) share
// one backing array instead of one allocation per row. Interned strings
// also make the common equal-strings comparison a pointer check inside the
// runtime. An Interner is safe for concurrent use.
type Interner struct {
	mu sync.Mutex
	m  map[string]string
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

// Intern returns the canonical instance of s. The first sighting is
// cloned, so the table never pins a caller's larger backing array (e.g. a
// whole CSV record) through a substring.
func (in *Interner) Intern(s string) string {
	in.mu.Lock()
	c, ok := in.m[s]
	if !ok {
		c = strings.Clone(s)
		in.m[c] = c
	}
	in.mu.Unlock()
	return c
}

// Len reports the number of distinct strings interned.
func (in *Interner) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.m)
}

// Value interns v's payload when it is a string; other kinds pass through
// unchanged (they carry no heap payload worth sharing).
func (in *Interner) Value(v Value) Value {
	if v.kind == StringKind {
		v.s = in.Intern(v.s)
	}
	return v
}

// ParseInterned is Parse with string results canonicalized through the
// intern table.
func (in *Interner) ParseInterned(s string) Value {
	return in.Value(Parse(s))
}
