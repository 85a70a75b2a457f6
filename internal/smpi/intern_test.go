package smpi

import (
	"context"
	"testing"
)

// TestWorldCommSharesMembers: every rank's world Comm must alias the one
// world member list — the per-rank copies were O(P²) memory at beyond-paper
// scales.
func TestWorldCommSharesMembers(t *testing.T) {
	w := NewWorld(16, false)
	a, b := WorldComm(w, 0), WorldComm(w, 15)
	if &a.members[0] != &b.members[0] {
		t.Fatal("world Comms hold separate member copies")
	}
	if a.id != b.id || a.id != w.worldID {
		t.Fatal("world Comm IDs diverge")
	}
	if a.Rank() != 0 || b.Rank() != 15 || a.Size() != 16 {
		t.Fatalf("rank/size wrong: %d %d %d", a.Rank(), b.Rank(), a.Size())
	}
}

// TestSubInternsLargeMemberLists: Sub communicators at or above the intern
// threshold share one member copy across ranks; smaller ones stay private
// (they are transient — per-tile comms must not pin the intern table).
func TestSubInternsLargeMemberLists(t *testing.T) {
	p := internMembersMin + 8
	w := NewWorld(p, false)
	big := make([]int, internMembersMin)
	for i := range big {
		big[i] = i
	}
	c0, c1 := WorldComm(w, 0), WorldComm(w, 1)
	s0, s1 := c0.Sub("active", big), c1.Sub("active", big)
	if &s0.members[0] != &s1.members[0] {
		t.Fatal("large Sub member lists not shared")
	}
	if &s0.members[0] == &big[0] {
		t.Fatal("interned list aliases the caller's slice")
	}
	small := []int{0, 1}
	t0, t1 := c0.Sub("tile", small), c1.Sub("tile", small)
	if &t0.members[0] == &t1.members[0] {
		t.Fatal("small Sub member lists unexpectedly shared")
	}
	if len(w.interned) != 1 {
		t.Fatalf("intern table has %d entries, want 1", len(w.interned))
	}
}

// TestSubShapesMessaging: a quick end-to-end sanity run over an interned
// communicator — sub-rank indexing and message routing must be unaffected
// by the sharing.
func TestSubShapesMessaging(t *testing.T) {
	p := internMembersMin
	_, err := Exec(context.Background(), Config{P: p}, func(c *Comm) error {
		members := make([]int, p)
		for i := range members {
			members[i] = p - 1 - i // reversed order: sub-rank ≠ world rank
		}
		sub := c.Sub("rev", members)
		me := sub.Rank()
		sub.Send((me+1)%p, 0, Msg{N: 8})
		sub.Recv((me-1+p)%p, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommIDSeparatesNameFromMembers: the binary FNV hash must keep the
// name and member-list domains separated so ("ab", [...]) cannot collide
// with ("a", [...]) by byte concatenation.
func TestCommIDSeparatesNameFromMembers(t *testing.T) {
	if commID("row", []int{1, 2}) == commID("row", []int{2, 1}) {
		t.Fatal("member order ignored")
	}
	if commID("a", []int{1}) == commID("b", []int{1}) {
		t.Fatal("name ignored")
	}
	if commID("a", []int{0x62}) == commID("ab", []int{}) {
		t.Fatal("name/member boundary not separated")
	}
}
