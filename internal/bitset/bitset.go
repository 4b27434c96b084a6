// Package bitset provides a dense, fixed-capacity bit set used as the hot
// data structure of the scheduler: coverage sets W, per-node neighborhoods
// N(u), and conflict tests N(u)∩N(v)∩W̄ all reduce to word-parallel
// operations on values of type Set.
//
// A Set is a plain []uint64 slice; the zero value is an empty set of
// capacity zero. All binary operations require operands created with the
// same capacity (same word count); this is the library-wide invariant, and
// it keeps every operation allocation-free and branch-light.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set. Bits beyond the capacity passed to New
// must remain zero; every mutating method preserves that invariant.
type Set []uint64

// WordsFor returns the word count of a Set with capacity for n bits —
// for callers that slab-allocate many same-capacity sets in one backing
// slice.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an empty set able to hold bits [0, n).
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative capacity")
	}
	return make(Set, (n+wordBits-1)/wordBits)
}

// Words returns the number of 64-bit words backing the set.
func (s Set) Words() int { return len(s) }

// Capacity returns the number of bits the set can hold.
func (s Set) Capacity() int { return len(s) * wordBits }

// Add sets bit i.
func (s Set) Add(i int) { s[i/wordBits] |= 1 << uint(i%wordBits) }

// Remove clears bit i.
func (s Set) Remove(i int) { s[i/wordBits] &^= 1 << uint(i%wordBits) }

// Has reports whether bit i is set.
func (s Set) Has(i int) bool { return s[i/wordBits]&(1<<uint(i%wordBits)) != 0 }

// Len returns the number of set bits.
func (s Set) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear resets every bit to zero, keeping capacity.
func (s Set) Clear() {
	for i := range s {
		s[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// CopyFrom overwrites s with the contents of t. Panics if capacities differ.
func (s Set) CopyFrom(t Set) {
	if len(s) != len(t) {
		panic("bitset: capacity mismatch")
	}
	copy(s, t)
}

// Equal reports whether s and t contain exactly the same bits.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i, w := range s {
		if w != t[i] {
			return false
		}
	}
	return true
}

// UnionWith sets s = s ∪ t.
func (s Set) UnionWith(t Set) {
	for i, w := range t {
		s[i] |= w
	}
}

// UnionDifference sets s = s ∪ (t − u) — one class-receiver update of
// the greedy partition, R |= N(v) \ W, without a temporary.
func (s Set) UnionDifference(t, u Set) {
	for i, w := range t {
		s[i] |= w &^ u[i]
	}
}

// IntersectWith sets s = s ∩ t.
func (s Set) IntersectWith(t Set) {
	for i, w := range t {
		s[i] &= w
	}
}

// DifferenceWith sets s = s − t.
func (s Set) DifferenceWith(t Set) {
	for i, w := range t {
		s[i] &^= w
	}
}

// CountIntersect returns |s ∩ t| without materializing the intersection.
func (s Set) CountIntersect(t Set) int {
	n := 0
	for i, w := range t {
		n += bits.OnesCount64(s[i] & w)
	}
	return n
}

// Intersects reports whether s ∩ t is non-empty without materializing it.
func (s Set) Intersects(t Set) bool {
	for i, w := range t {
		if s[i]&w != 0 {
			return true
		}
	}
	return false
}

// IntersectsDifference reports whether s ∩ t ∩ ¬u is non-empty — the
// conflict predicate N(a)∩N(b)∩W̄ ≠ ∅ evaluated without allocation.
func (s Set) IntersectsDifference(t, u Set) bool {
	for i, w := range t {
		if s[i]&w&^u[i] != 0 {
			return true
		}
	}
	return false
}

// CountIntersectDifference returns |s ∩ t ∩ ¬u| — the number of uncovered
// receivers a relay would reach, used by the greedy color ordering.
func (s Set) CountIntersectDifference(t, u Set) int {
	n := 0
	for i, w := range t {
		n += bits.OnesCount64(s[i] & w &^ u[i])
	}
	return n
}

// CountDifference returns |s − t|.
func (s Set) CountDifference(t Set) int {
	n := 0
	for i, w := range s {
		n += bits.OnesCount64(w &^ t[i])
	}
	return n
}

// AnyDifference reports whether s − t is non-empty.
func (s Set) AnyDifference(t Set) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubsetOf reports whether every bit of s is also in t.
func (s Set) IsSubsetOf(t Set) bool {
	for i, w := range s {
		if w&^t[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// AppendMembers appends the indices of all set bits to dst and returns it.
func (s Set) AppendMembers(dst []int) []int {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// Members returns the indices of all set bits in ascending order.
func (s Set) Members() []int { return s.AppendMembers(nil) }

// NextAfter returns the smallest set bit ≥ i, or -1 if none exists.
func (s Set) NextAfter(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(s) {
		return -1
	}
	w := s[wi] >> uint(i%wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s); wi++ {
		if s[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s[wi])
		}
	}
	return -1
}

// Hash returns a 64-bit FNV-1a digest of the set contents, used as a
// memoization key component by the scheduler search.
func (s Set) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, w := range s {
		for b := 0; b < 8; b++ {
			h ^= (w >> uint(8*b)) & 0xff
			h *= prime
		}
	}
	return h
}

// HashWith returns a seeded 64-bit digest of the set contents, one
// word-level SplitMix64-style mix per backing word. It is the memo-table
// key of the scheduler search: word-parallel (8× fewer multiplies than the
// byte-wise Hash) and seedable so distinct tables observe independent
// collision patterns. Equal sets always hash equal for a given seed;
// collisions between distinct sets are possible and callers must verify.
func (s Set) HashWith(seed uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, w := range s {
		h ^= w
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// Key returns the raw words as a string, a collision-free map key.
func (s Set) Key() string {
	var b strings.Builder
	b.Grow(len(s) * 8)
	for _, w := range s {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> uint(8*i)))
		}
	}
	return b.String()
}

// String renders the set as "{1, 4, 7}" for debugging and traces.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// FromMembers builds a set of capacity n containing exactly the given bits.
func FromMembers(n int, members ...int) Set {
	s := New(n)
	for _, m := range members {
		s.Add(m)
	}
	return s
}

// Union returns a fresh set holding s ∪ t.
func Union(s, t Set) Set {
	c := s.Clone()
	c.UnionWith(t)
	return c
}

// UnionInto sets dst = s ∪ t without allocating. All three sets must share
// the same capacity; dst may alias s or t.
func UnionInto(dst, s, t Set) {
	if len(dst) != len(s) || len(s) != len(t) {
		panic("bitset: capacity mismatch")
	}
	for i := range dst {
		dst[i] = s[i] | t[i]
	}
}

// IntersectInto sets dst = s ∩ t without allocating. All three sets must
// share the same capacity; dst may alias s or t.
func IntersectInto(dst, s, t Set) {
	if len(dst) != len(s) || len(s) != len(t) {
		panic("bitset: capacity mismatch")
	}
	for i := range dst {
		dst[i] = s[i] & t[i]
	}
}

// Intersect returns a fresh set holding s ∩ t.
func Intersect(s, t Set) Set {
	c := s.Clone()
	c.IntersectWith(t)
	return c
}

// Difference returns a fresh set holding s − t.
func Difference(s, t Set) Set {
	c := s.Clone()
	c.DifferenceWith(t)
	return c
}
