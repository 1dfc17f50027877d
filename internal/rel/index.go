package rel

import "math/bits"

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
// Positions are dense and assigned by Append in order; a chain runs from
// the most recent position back to the oldest (BuildIndex: oldest first).
// Hashing never allocates, equality is deterministic, so identity is
// exactly value equality and every traversal order is a function of
// insertion order alone. The zero Index is empty but not appendable.
//
// The table is open-addressed: a power-of-two slot array, at most half
// full, holds 1 + the head of each distinct hash's chain (0 is empty).
// A hash's probe starts at the top bits of its Fibonacci product and runs
// linearly; a slot matches when the hash stored beside its head's next
// link is the probed one. Append finds the slot First stopped at by
// looking for head+1, an int32 compare, and never re-compares a hash.
// Slots and links share one allocation. The read-only methods take the
// value, so an index captured by a closure is not moved to the heap.
type Index struct {
	slots  []int32  // 1 + the head of a chain, 0 empty; len is a power of two
	next   []int32  // position -> next position of its chain, -1 ends
	hashes []uint64 // position -> its hash
	shift  uint8    // 64 − log2(len(slots)): a hash's home is its product's top bits
	keys   int32    // occupied slots: the distinct hashes
}

// fib is 2⁶⁴/φ, the Fibonacci hashing multiplier: its product spreads
// hashes that differ only in their low bits across the top bits.
const fib = 0x9e3779b97f4a7c15

// minBits is log2 of the smallest slot array, so that an index sized for
// nothing is appendable and grows by doubling.
const minBits = 3

// tableBits returns log2 of the slot array for n distinct hashes at load
// at most ½.
func tableBits(n int) uint8 {
	if n <= 1<<minBits/2 {
		return minBits
	}
	return uint8(bits.Len(uint(2*n - 1)))
}

// newTable returns an index with 2^b slots and room for n positions,
// slots and links carved from one []int32.
func newTable(b uint8, n int) Index {
	size := 1 << b
	buf := make([]int32, size+n)
	return Index{slots: buf[:size:size], next: buf[size:size], shift: 64 - b}
}

// NewIndex returns an empty index sized for about n positions.
func NewIndex(n int) Index {
	ix := newTable(tableBits(n), n)
	ix.hashes = make([]uint64, 0, n)
	return ix
}

// BuildIndex indexes positions 0..len(hashes)-1 in one pass, chaining
// equal hashes in ascending position order — the hash join's build side,
// which must be visited in insertion order. The index keeps hashes as its
// own: the caller must not modify it afterwards.
func BuildIndex(hashes []uint64) Index {
	n := len(hashes)
	ix := newTable(tableBits(n), n)
	ix.next, ix.hashes = ix.next[:n], hashes[:n:n]
	mask := len(ix.slots) - 1
	for i := n - 1; i >= 0; i-- {
		h := hashes[i]
		j := int(h * fib >> ix.shift)
		for s := ix.slots[j]; s != 0 && hashes[s-1] != h; s = ix.slots[j] {
			j = (j + 1) & mask
		}
		if ix.slots[j] == 0 {
			ix.keys++
		}
		ix.next[i] = ix.slots[j] - 1
		ix.slots[j] = int32(i) + 1
	}
	return ix
}

// Built reports whether the index was made by NewIndex or BuildIndex; the
// zero Index is not.
func (ix Index) Built() bool { return ix.slots != nil }

// First returns the first position of h's chain, or -1.
func (ix Index) First(h uint64) int32 {
	if len(ix.slots) == 0 {
		return -1
	}
	mask := len(ix.slots) - 1
	for j := int(h * fib >> ix.shift); ; j = (j + 1) & mask {
		if s := ix.slots[j]; s == 0 || ix.hashes[s-1] == h {
			return s - 1
		}
	}
}

// Next returns the position after p in its chain, or -1.
func (ix Index) Next(p int32) int32 { return ix.next[p] }

// Append assigns the next position to hash h, linking it in front of
// head, which must be First(h).
func (ix *Index) Append(h uint64, head int32) {
	if head < 0 {
		if 2*int(ix.keys+1) > len(ix.slots) {
			ix.grow()
		}
		ix.keys++
	}
	p := int32(len(ix.next)) + 1
	ix.next = append(ix.next, head)
	ix.hashes = append(ix.hashes, h)
	mask := len(ix.slots) - 1
	j := int(h * fib >> ix.shift)
	for ix.slots[j] != head+1 { // h's slot, or the empty one First stopped at
		j = (j + 1) & mask
	}
	ix.slots[j] = p
}

// grow doubles the slot array, re-placing every chain head.
func (ix *Index) grow() {
	b := 64 - ix.shift + 1
	slots, mask := make([]int32, 1<<b), 1<<b-1
	for _, s := range ix.slots {
		if s == 0 {
			continue
		}
		j := int(ix.hashes[s-1] * fib >> (64 - b))
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = s
	}
	ix.slots, ix.shift = slots, 64-b
}

// Clone returns an independent copy; the zero Index clones to itself.
func (ix Index) Clone() Index {
	if !ix.Built() {
		return Index{}
	}
	out := newTable(64-ix.shift, len(ix.next))
	copy(out.slots, ix.slots)
	out.next = append(out.next, ix.next...)
	out.hashes = append([]uint64(nil), ix.hashes...)
	out.keys = ix.keys
	return out
}
