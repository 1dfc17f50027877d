package rel

// Index is the one hashed identity of the engine: it maps a 64-bit hash to
// the positions carrying it, for a caller that stores the keyed items
// (tuples, (D, row) pairs, lineage groups, clauses, annotated rows) in a
// slice of its own and confirms candidates by value equality. Relations,
// the hash join, lineage grouping, repair-key's group and alternative
// tables, clause dedup and the Lemma 6.4 bounds all sit on it — none keeps
// a hash chain, or a key string, of its own.
//
// The idiom is
//
//	head := ix.First(h)
//	for p := head; p >= 0; p = ix.Next(p) {
//		if items[p] equals key { return p }
//	}
//	ix.Append(h, head) // key becomes position len(items)
//
// so the probe and the link share one map lookup. Positions are dense and
// assigned by Append in order; a chain runs from the most recent position
// back to the oldest (BuildIndex: oldest first). Hashing never allocates,
// equality is deterministic, so identity is exactly value equality and
// every traversal order is a function of insertion order alone. The zero
// Index is empty but not appendable. Every method inlines; the read-only
// ones take the (two-word-plus-slice) value, so an index captured by a
// closure is not moved to the heap.
type Index struct {
	head map[uint64]int32 // hash -> 1 + first position of its chain
	next []int32          // position -> next position of its chain, -1 ends
}

// NewIndex returns an empty index sized for about n positions.
func NewIndex(n int) Index { return Index{head: make(map[uint64]int32, n), next: make([]int32, 0, n)} }

// BuildIndex indexes positions 0..len(hashes)-1 in one pass, chaining
// equal hashes in ascending position order — the hash join's build side,
// which must be visited in insertion order.
func BuildIndex(hashes []uint64) Index {
	ix := Index{head: make(map[uint64]int32, len(hashes)), next: make([]int32, len(hashes))}
	for i := len(hashes) - 1; i >= 0; i-- {
		ix.next[i] = ix.head[hashes[i]] - 1
		ix.head[hashes[i]] = int32(i) + 1
	}
	return ix
}

// Built reports whether the index was made by NewIndex or BuildIndex; the
// zero Index is not.
func (ix Index) Built() bool { return ix.head != nil }

// First returns the first position of h's chain, or -1.
func (ix Index) First(h uint64) int32 { return ix.head[h] - 1 }

// Next returns the position after p in its chain, or -1.
func (ix Index) Next(p int32) int32 { return ix.next[p] }

// Append assigns the next position to hash h, linking it in front of
// head, which must be First(h).
func (ix *Index) Append(h uint64, head int32) {
	ix.next = append(ix.next, head)
	ix.head[h] = int32(len(ix.next))
}

// Clone returns an independent copy; the zero Index clones to itself.
func (ix Index) Clone() Index {
	if !ix.Built() {
		return Index{}
	}
	out := Index{head: make(map[uint64]int32, len(ix.head)), next: append([]int32(nil), ix.next...)}
	for h, p := range ix.head {
		out.head[h] = p
	}
	return out
}
