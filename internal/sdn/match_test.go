package sdn

import (
	"testing"
	"testing/quick"

	"repro/internal/ndlog"
)

func ptr(v int64) *int64 { return &v }

func TestMatchSemantics(t *testing.T) {
	pkt := Packet{SrcIP: 10, DstIP: 20, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	cases := []struct {
		name string
		m    Match
		in   int64
		want bool
	}{
		{"wildcard", Match{}, 5, true},
		{"dst port hit", Match{DstPort: ptr(80)}, 5, true},
		{"dst port miss", Match{DstPort: ptr(53)}, 5, false},
		{"in port hit", Match{InPort: ptr(5)}, 5, true},
		{"in port miss", Match{InPort: ptr(6)}, 5, false},
		{"full hit", Match{SrcIP: ptr(10), DstIP: ptr(20), SrcPort: ptr(1000), DstPort: ptr(80), Proto: ptr(int64(ProtoTCP))}, 5, true},
		{"one field off", Match{SrcIP: ptr(10), DstIP: ptr(21)}, 5, false},
	}
	for _, c := range cases {
		if got := c.m.Matches(c.in, pkt); got != c.want {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
		}
	}
}

func TestSpecificityBounds(t *testing.T) {
	f := func(a, b, c, d, e, g bool) bool {
		m := Match{}
		n := 0
		if a {
			m.InPort = ptr(1)
			n++
		}
		if b {
			m.SrcIP = ptr(1)
			n++
		}
		if c {
			m.DstIP = ptr(1)
			n++
		}
		if d {
			m.SrcPort = ptr(1)
			n++
		}
		if e {
			m.DstPort = ptr(1)
			n++
		}
		if g {
			m.Proto = ptr(1)
			n++
		}
		return m.Specificity() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatchStringStable(t *testing.T) {
	m := Match{DstPort: ptr(80), SrcIP: ptr(10)}
	if m.String() != "sip=10,dpt=80" {
		t.Fatalf("render = %q", m.String())
	}
	if (Match{}).String() != "*" {
		t.Fatal("wildcard render broken")
	}
}

// Match.Equal must agree exactly with the String-rendering comparison it
// replaced on the switch install path.
func TestMatchEqualAgreesWithStringEquality(t *testing.T) {
	gen := func(bits uint8, v int64) Match {
		var m Match
		if bits&1 != 0 {
			m.InPort = ptr(v)
		}
		if bits&2 != 0 {
			m.SrcIP = ptr(v + 1)
		}
		if bits&4 != 0 {
			m.DstIP = ptr(v)
		}
		if bits&8 != 0 {
			m.SrcPort = ptr(2 * v)
		}
		if bits&16 != 0 {
			m.DstPort = ptr(80)
		}
		if bits&32 != 0 {
			m.Proto = ptr(v % 3)
		}
		return m
	}
	f := func(aBits, bBits uint8, av, bv int64) bool {
		a, b := gen(aBits, av), gen(bBits, bv)
		return a.Equal(b) == (a.String() == b.String())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Table() must keep a flat table's order: descending priority, ties in
// installation order.
func TestInstallKeepsStableTieOrder(t *testing.T) {
	s := NewSwitch("s", 1)
	mk := func(prio int, port int) FlowEntry {
		return FlowEntry{Priority: prio, Match: Match{DstPort: ptr(int64(port))}, Action: Action{Kind: ActionOutput, Port: port}, Tags: 1}
	}
	s.Install(mk(1, 10))
	s.Install(mk(3, 20))
	s.Install(mk(1, 30)) // ties with the first: must land after it
	s.Install(mk(2, 40))
	var got []int
	for _, e := range s.Table() {
		got = append(got, e.Action.Port)
	}
	want := []int{20, 40, 10, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("table order = %v, want %v", got, want)
		}
	}
}

func TestFieldPtrWildcard(t *testing.T) {
	if FieldPtr(ndlog.Wild()) != nil {
		t.Fatal("wildcard must become a nil match field")
	}
	if p := FieldPtr(ndlog.Int(7)); p == nil || *p != 7 {
		t.Fatal("integer field broken")
	}
}

// A packet's tag set is always partitioned: every tag either lands in
// exactly one action group or misses — never both, never twice.
func TestMatchGroupsPartitionProperty(t *testing.T) {
	f := func(tags uint64, entries uint8) bool {
		if tags == 0 {
			tags = 1
		}
		s := NewSwitch("s", 1)
		n := int(entries%6) + 1
		for i := 0; i < n; i++ {
			s.Install(FlowEntry{
				Priority: i % 3,
				Match:    Match{},
				Action:   Action{Kind: ActionOutput, Port: i},
				Tags:     tags >> uint(i), // varied, possibly empty sets
			})
		}
		groups, miss := s.matchGroups(0, Packet{Tags: tags})
		var covered uint64
		for _, g := range groups {
			if covered&g != 0 {
				return false // a tag in two groups
			}
			covered |= g
		}
		if covered&miss != 0 {
			return false // a tag both matched and missed
		}
		return covered|miss == tags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
