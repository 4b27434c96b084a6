package bitset

import (
	"testing"
	"testing/quick"
)

func TestUnionInto(t *testing.T) {
	s := FromMembers(130, 1, 64)
	u := FromMembers(130, 2, 129)
	dst := New(130)
	UnionInto(dst, s, u)
	if !dst.Equal(Union(s, u)) {
		t.Fatalf("UnionInto = %v, want %v", dst, Union(s, u))
	}
	// Aliasing: dst == s.
	UnionInto(s, s, u)
	if !s.Equal(dst) {
		t.Fatalf("aliased UnionInto = %v, want %v", s, dst)
	}
}

func TestIntersectInto(t *testing.T) {
	s := FromMembers(130, 1, 64, 100)
	u := FromMembers(130, 64, 100, 129)
	dst := New(130)
	IntersectInto(dst, s, u)
	if !dst.Equal(Intersect(s, u)) {
		t.Fatalf("IntersectInto = %v, want %v", dst, Intersect(s, u))
	}
	IntersectInto(u, s, u)
	if !u.Equal(dst) {
		t.Fatalf("aliased IntersectInto = %v, want %v", u, dst)
	}
}

func TestIntoCapacityMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("UnionInto with mismatched capacities did not panic")
		}
	}()
	UnionInto(New(64), New(128), New(128))
}

func TestCountIntersect(t *testing.T) {
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return a.CountIntersect(b) == Intersect(a, b).Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashWithEqualSetsEqualHashes(t *testing.T) {
	a := FromMembers(300, 5, 77, 299)
	b := FromMembers(300, 5, 77, 299)
	if a.HashWith(42) != b.HashWith(42) {
		t.Fatal("equal sets must hash equal under the same seed")
	}
	if a.HashWith(42) == a.HashWith(43) {
		t.Fatal("different seeds should (overwhelmingly) give different digests")
	}
}

// HashWith must actually discriminate: over a few thousand single-bit and
// two-bit variations of a base set, no two digests may coincide (a
// collision here would be astronomically unlikely for a sound 64-bit mix
// and certain for a broken one).
func TestHashWithDiscriminates(t *testing.T) {
	seen := make(map[uint64]string)
	record := func(s Set, label string) {
		h := s.HashWith(7)
		if prev, dup := seen[h]; dup {
			t.Fatalf("digest collision between %s and %s", prev, label)
		}
		seen[h] = label
	}
	base := New(512)
	record(base, "empty")
	for i := 0; i < 512; i++ {
		s := base.Clone()
		s.Add(i)
		record(s, "one-bit")
		s.Add((i + 200) % 512)
		record(s, "two-bit")
	}
}

func TestUnionDifference(t *testing.T) {
	s := FromMembers(130, 0, 70)
	nbr := FromMembers(130, 1, 64, 70, 129)
	w := FromMembers(130, 64)
	s.UnionDifference(nbr, w)
	if want := Union(FromMembers(130, 0, 70), Difference(nbr, w)); !s.Equal(want) {
		t.Fatalf("UnionDifference = %v, want %v", s, want)
	}
}
