//go:build !race

package sdn

// Allocation guards for the replay path (the race detector makes sync.Pool,
// which backs the engine's delta binding sets, allocate at random).

import (
	"testing"

	"repro/internal/ndlog"
)

// A PacketIn nobody listens to costs the heap what outlives it: here the one
// PacketOut head's arguments, and neither the event's arguments, nor its
// row, nor a derivation. With a listener the same PacketIn keeps them all.
func TestQuietPacketInAllocatesOnlyDerivedHeads(t *testing.T) {
	const src = `
po PacketOut(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Prt := 2.
`
	measure := func(mode ndlog.EvalMode, listen bool) float64 {
		n := twoSwitchNet()
		eng := ndlog.MustNewEngine(ndlog.MustParse("events", src))
		eng.SetEvalMode(mode)
		if listen {
			eng.Listen(ndlog.BaseListener{})
		}
		ctl := NewNDlogController(eng)
		n.Ctrl = ctl
		s2 := n.Switches["s2"]
		pkt := Packet{SrcIP: 101, DstIP: 102, DstPort: 80, Tags: 0b11}
		ctl.PacketIn(n, s2, 1, pkt) // lays out h2's counter rows
		before := n.Delivered
		allocs := testing.AllocsPerRun(100, func() { ctl.PacketIn(n, s2, 1, pkt) })
		if n.Delivered-before != 101 {
			t.Fatalf("mode %v: %d of 101 PacketOuts delivered", mode, n.Delivered-before)
		}
		return allocs
	}
	for _, mode := range []ndlog.EvalMode{ndlog.EvalFull, ndlog.EvalDelta} {
		if got := measure(mode, false); got > 1 {
			t.Errorf("mode %v: a quiet PacketIn allocates %.0f objects, want the PacketOut's arguments only", mode, got)
		}
		if got := measure(mode, true); got < 3 {
			t.Errorf("mode %v: a listened PacketIn allocates %.0f objects; it keeps the event's arguments and row at least", mode, got)
		}
	}
}

// A repeat of the previous injection is applied from the traversal record
// into counter rows that exist: it allocates nothing, whatever the width.
func TestRepeatInjectAllocatesNothing(t *testing.T) {
	n := twoSwitchNet()
	s1, s2 := n.Switches["s1"], n.Switches["s2"]
	s1.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: s1.PortTo("s2")}, Tags: ndlog.AllTags})
	s2.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: s2.PortTo("h2")}, Tags: ndlog.AllTags})
	for _, tags := range []uint64{1, 0b1111, 1<<40 | 1} {
		pkt := Packet{SrcIP: 101, DstIP: 102, DstPort: 80, Tags: tags}
		n.Inject("h1", pkt)
		walks := n.Walks
		if got := testing.AllocsPerRun(100, func() { n.Inject("h1", pkt) }); got != 0 || n.Walks != walks {
			t.Errorf("tags %#x: a repeat injection allocates %.0f objects over %d walks, want 0 and 0", tags, got, n.Walks-walks)
		}
	}
}
