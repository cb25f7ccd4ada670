package sdn

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/ndlog"
)

// scanActions is the reference matcher the flow index is held to: one
// linear pass over a flat table in (priority desc, install order asc)
// order, testing every entry with Match.Matches.
func scanActions(table []FlowEntry, inPort int64, p Packet) ([]actionGroup, uint64) {
	var acts []actionGroup
	remaining := p.Tags
	for _, e := range table {
		if remaining == 0 {
			break
		}
		hit := remaining & e.Tags
		if hit == 0 || !e.Match.Matches(inPort, p) {
			continue
		}
		acts = addAction(acts, e.Action, hit)
		remaining &^= hit
	}
	return acts, remaining
}

// flatTable is the flat flow table the index is held to, built from the
// entries a switch was given in installation order: an entry an identical
// earlier one (same match, priority and action) covers the tag set of is
// dropped, and the rest are sorted by descending priority, ties in
// installation order.
func flatTable(installed []FlowEntry) []FlowEntry {
	var out []FlowEntry
	for _, e := range installed {
		covered := slices.ContainsFunc(out, func(t FlowEntry) bool {
			return t.Priority == e.Priority && t.Action == e.Action &&
				t.Match.Equal(e.Match) && e.Tags&^t.Tags == 0
		})
		if !covered {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// Table enumerates the switch's index layers in lookup order: highest
// priority first, equal priorities in installation order.
func (s *Switch) Table() []FlowEntry {
	var all []idxEntry
	for fi := &s.idx; fi != nil; fi = fi.base {
		for _, g := range fi.groups {
			for _, b := range g.buckets {
				all = append(all, b...)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].e.Priority != all[j].e.Priority {
			return all[i].e.Priority > all[j].e.Priority
		}
		return all[i].seq < all[j].seq
	})
	out := make([]FlowEntry, len(all))
	for i := range all {
		out[i] = all[i].e
	}
	return out
}

// randomEntries draws entries over all six match fields from a value
// space small enough that packets hit several of them: wildcards, tied
// priorities, partial tag masks, and re-installs of earlier entries under
// a subset (a covered no-op) or a superset (a new entry) of their tags.
func randomEntries(r *rand.Rand, n int) []FlowEntry {
	field := func() *int64 {
		if r.Intn(3) == 0 {
			return nil
		}
		return ptr(int64(r.Intn(3)))
	}
	out := make([]FlowEntry, 0, n)
	for len(out) < n {
		if len(out) > 0 && r.Intn(4) == 0 {
			e := out[r.Intn(len(out))]
			if r.Intn(2) == 0 {
				e.Tags &= r.Uint64()
			} else {
				e.Tags |= r.Uint64()
			}
			out = append(out, e)
			continue
		}
		out = append(out, FlowEntry{
			Priority: r.Intn(4),
			Match: Match{InPort: field(), SrcIP: field(), DstIP: field(),
				SrcPort: field(), DstPort: field(), Proto: field()},
			Action: Action{Kind: ActionKind(r.Intn(2)), Port: r.Intn(3)},
			Tags:   r.Uint64() & r.Uint64(),
		})
	}
	return out
}

func randomPacket(r *rand.Rand) (int64, Packet) {
	v := func() int64 { return int64(r.Intn(3)) }
	return v(), Packet{SrcIP: v(), DstIP: v(), SrcPort: v(), DstPort: v(), Proto: v(), Tags: r.Uint64() | 1}
}

func sameEntries(a, b []FlowEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Priority != b[i].Priority || a[i].Action != b[i].Action ||
			a[i].Tags != b[i].Tags || !a[i].Match.Equal(b[i].Match) {
			return false
		}
	}
	return true
}

// checkAgainstScan compares the switch's production matcher with the scan
// over want on random packets: same action groups in the same order, same
// per-action tag sets, same miss mask.
func checkAgainstScan(t *testing.T, r *rand.Rand, s *Switch, want []FlowEntry, label string) {
	t.Helper()
	for i := 0; i < 200; i++ {
		inPort, p := randomPacket(r)
		got, gotMiss := s.matchActions(inPort, p, nil)
		ref, refMiss := scanActions(want, inPort, p)
		if fmt.Sprint(got) != fmt.Sprint(ref) || gotMiss != refMiss {
			t.Fatalf("%s: packet %v in %d: index %v miss %#x, scan %v miss %#x",
				label, p, inPort, got, gotMiss, ref, refMiss)
		}
	}
}

// The production matcher (the tuple-space index) must agree with a linear
// scan over the flat table of the installed entries on every packet.
func TestIndexMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewSwitch("s", 1)
		entries := randomEntries(r, 1+r.Intn(40))
		for _, e := range entries {
			s.Install(e)
		}
		want := flatTable(entries)
		label := fmt.Sprintf("seed %d", seed)
		if !sameEntries(s.Table(), want) {
			t.Fatalf("%s: index table\n%v\nflat table\n%v", label, s.Table(), want)
		}
		checkAgainstScan(t, r, s, want, label)
	}
}

// A fork whose entries are split between the frozen base and its own
// overlay at a random cut must be indistinguishable from the flat table of
// all its installs: same entries, same matches, and a re-install a base
// entry covers is a no-op.
func TestForkedIndexMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		entries := randomEntries(r, 2+r.Intn(40))
		cut := r.Intn(len(entries) + 1)
		flat := flatTable(entries)

		tmpl := NewNetwork()
		base := NewSwitch("s", 1)
		tmpl.AddSwitch(base)
		base.Install(entries[:cut]...)
		tmpl.Freeze()
		frozen := flatTable(entries[:cut])

		s := tmpl.Fork().Switches["s"]
		s.Install(entries[cut:]...)
		label := fmt.Sprintf("seed %d cut %d/%d", seed, cut, len(entries))
		if !sameEntries(s.Table(), flat) {
			t.Fatalf("%s: fork table\n%v\nflat table\n%v", label, s.Table(), flat)
		}
		checkAgainstScan(t, r, s, flat, label)

		for _, e := range frozen {
			e.Tags &= r.Uint64()
			s.Install(e)
		}
		if !sameEntries(s.Table(), flat) {
			t.Fatalf("%s: re-installing covered base entries changed the fork's table", label)
		}

		s.ClearTable()
		if len(s.Table()) != 0 {
			t.Fatalf("%s: ClearTable left %d entries on the fork", label, len(s.Table()))
		}
		inPort, p := randomPacket(r)
		if groups, _ := s.matchGroups(inPort, p); len(groups) != 0 {
			t.Fatalf("%s: a cleared fork still matches", label)
		}
		if !sameEntries(base.Table(), frozen) {
			t.Fatalf("%s: ClearTable on a fork changed the frozen table", label)
		}
		if again := tmpl.Fork().Switches["s"]; !sameEntries(again.Table(), frozen) {
			t.Fatalf("%s: a later fork lost the base entries", label)
		}
	}
}

// installOnMiss is a controller that answers every PacketIn with an entry
// toward h2 and a PacketOut, as a reactive program would.
type installOnMiss struct{}

func (installOnMiss) PacketIn(n *Network, sw *Switch, _ int64, p Packet) {
	port := sw.PortTo("h2")
	if port < 0 {
		port = sw.PortTo("s2")
	}
	sw.Install(FlowEntry{Priority: 5, Match: Match{SrcIP: ptr(p.SrcIP)},
		Action: Action{Kind: ActionOutput, Port: port}, Tags: p.Tags})
	n.SendFromSwitch(sw, port, p)
}

// Forks of one frozen network share its tables and wiring; replaying and
// installing on eight of them at once must neither race (run under -race)
// nor show in each other's counters or in the template. Each goroutine
// also plays a traversal-record script (inject_test.go) on its own fork of
// a second shared template: the record is per fork, like the counters.
func TestConcurrentForksAreIsolated(t *testing.T) {
	tmpl := twoSwitchNet()
	s1 := tmpl.Switches["s1"]
	s1.Install(FlowEntry{Priority: 1, Match: Match{DstIP: ptr(102), DstPort: ptr(PortDNS)},
		Action: Action{Kind: ActionOutput, Port: s1.PortTo("s2")}, Tags: ndlog.AllTags})
	tmpl.Freeze()

	replay := func() *Network {
		n := tmpl.Fork()
		n.Ctrl = installOnMiss{}
		for i := 0; i < 200; i++ {
			n.Inject("h1", Packet{SrcIP: int64(i % 7), DstIP: 102, DstPort: int64(PortDNS + i%2*27), Tags: 0b111})
		}
		return n
	}
	want := replay()
	if want.Delivered == 0 || want.PacketIns == 0 {
		t.Fatalf("the replay exercises nothing: delivered %d, PacketIns %d", want.Delivered, want.PacketIns)
	}
	scripted := buildRandomNet(7)
	scripted.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d, _ := recordDiverges(7, scripted.Fork()); d != "" {
				t.Errorf("concurrent scripted fork: %s", d)
			}
			n := replay()
			if n.Delivered != want.Delivered || n.PacketIns != want.PacketIns || n.Hops != want.Hops ||
				received(n.Hosts["h2"]) != received(want.Hosts["h2"]) ||
				!sameEntries(n.Switches["s2"].Table(), want.Switches["s2"].Table()) {
				t.Errorf("concurrent fork diverged: delivered %d/%d PacketIns %d/%d hops %d/%d",
					n.Delivered, want.Delivered, n.PacketIns, want.PacketIns, n.Hops, want.Hops)
			}
		}()
	}
	wg.Wait()
	if len(s1.Table()) != 1 || len(tmpl.Switches["s2"].Table()) != 0 || received(tmpl.Hosts["h2"]) != [64]int64{} {
		t.Fatal("replays on forks leaked into the frozen network")
	}
}

// A fork must forward exactly like a freshly built copy of its template.
func TestForkForwardsLikeItsTemplate(t *testing.T) {
	build := func() *Network {
		n := twoSwitchNet()
		s1, s2 := n.Switches["s1"], n.Switches["s2"]
		s1.Install(FlowEntry{Priority: 1, Match: Match{DstIP: ptr(102)},
			Action: Action{Kind: ActionOutput, Port: s1.PortTo("s2")}, Tags: ndlog.AllTags})
		s2.Install(FlowEntry{Priority: 1, Match: Match{DstIP: ptr(102)},
			Action: Action{Kind: ActionOutput, Port: s2.PortTo("h2")}, Tags: 0b01})
		s2.Install(FlowEntry{Priority: 1, Match: Match{InPort: ptr(int64(s2.PortTo("s1")))},
			Action: Action{Kind: ActionOutput, Port: 9}, Tags: 0b10}) // unwired port
		return n
	}
	send := func(n *Network) {
		n.Inject("h1", Packet{SrcIP: 101, DstIP: 102, Tags: 0b111})
		n.Inject("h1", Packet{SrcIP: 101, DstIP: 999})
	}
	plain := build()
	send(plain)
	tmpl := build()
	tmpl.Freeze()
	fork := tmpl.Fork()
	send(fork)
	if fork.Delivered != plain.Delivered || fork.Dropped != plain.Dropped || fork.Missed != plain.Missed ||
		fork.Hops != plain.Hops || received(fork.Hosts["h2"]) != received(plain.Hosts["h2"]) {
		t.Fatalf("fork: delivered %d dropped %d missed %d hops %d; built: %d %d %d %d",
			fork.Delivered, fork.Dropped, fork.Missed, fork.Hops,
			plain.Delivered, plain.Dropped, plain.Missed, plain.Hops)
	}
	if plain.Delivered != 1 || plain.Dropped != 1 || plain.Missed != 2 {
		t.Fatalf("unexpected reference run: delivered %d dropped %d missed %d", plain.Delivered, plain.Dropped, plain.Missed)
	}
	if fork.SwitchByNum(2) != fork.Switches["s2"] || fork.HostByIP(102) != fork.Hosts["h2"] {
		t.Fatal("a fork's lookups must resolve to its own nodes")
	}
}

// A hand-built network resolves its links lazily and must notice every
// later wiring change.
func TestRewiringAfterForwardingTakesEffect(t *testing.T) {
	n := twoSwitchNet()
	s1 := n.Switches["s1"]
	s1.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: 7}, Tags: 1})
	n.Inject("h1", Packet{})
	if n.Dropped != 1 {
		t.Fatalf("port 7 is unwired: dropped = %d, want 1", n.Dropped)
	}
	n.AddHostAt(NewHost("h3", 103, "s1"), 7)
	n.Inject("h1", Packet{})
	if got := n.Hosts["h3"].ReceivedFor(0); got != 1 {
		t.Fatalf("after AddHostAt h3 received %d, want 1", got)
	}
	s3 := NewSwitch("s3", 3)
	n.AddSwitch(s3)
	s1.Wire(7, "s3")
	s3.Wire(4, "s1")
	s3.Install(FlowEntry{Match: Match{InPort: ptr(4)}, Action: Action{Kind: ActionDrop}, Tags: 1})
	n.Inject("h1", Packet{})
	if n.Hosts["h3"].ReceivedFor(0) != 1 || n.Dropped != 2 {
		t.Fatalf("after Wire the packet must reach s3 on port 4 and drop: h3 %d, dropped %d",
			n.Hosts["h3"].ReceivedFor(0), n.Dropped)
	}
	s3.Wire(5, "s1") // moves s1's arrival port on s3 from 4 to 5
	n.Inject("h1", Packet{})
	if n.Missed != 1 {
		t.Fatalf("after re-wiring s3 the InPort 4 entry must miss: missed = %d", n.Missed)
	}
}

func TestSealedNetworksPanic(t *testing.T) {
	entry := FlowEntry{Match: Match{}, Action: Action{Kind: ActionDrop}, Tags: 1}
	mutators := []struct {
		name   string
		onFork bool // also forbidden on a fork
		call   func(n *Network)
	}{
		{"Wire", true, func(n *Network) { n.Switches["s1"].Wire(9, "h2") }},
		{"AddSwitch", true, func(n *Network) { n.AddSwitch(NewSwitch("s3", 3)) }},
		{"AddHost", true, func(n *Network) { n.AddHost(NewHost("h3", 103, "s1")) }},
		{"AddHostAt", true, func(n *Network) { n.AddHostAt(NewHost("h3", 103, "s1"), 9) }},
		{"Link", true, func(n *Network) { n.Link("s1", "s2") }},
		{"Install", false, func(n *Network) { n.Switches["s1"].Install(entry) }},
		{"ClearTable", false, func(n *Network) { n.Switches["s1"].ClearTable() }},
		{"Inject", false, func(n *Network) { n.Inject("h1", Packet{}) }},
		{"SendFromSwitch", false, func(n *Network) { n.SendFromSwitch(n.Switches["s1"], 1, Packet{}) }},
	}
	panics := func(f func()) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		f()
		return false
	}
	tmpl := twoSwitchNet()
	tmpl.Freeze()
	tmpl.Freeze() // a no-op
	for _, m := range mutators {
		if !panics(func() { m.call(tmpl) }) {
			t.Errorf("%s on a frozen network did not panic", m.name)
		}
		if got := panics(func() { m.call(tmpl.Fork()) }); got != m.onFork {
			t.Errorf("%s on a fork: panicked = %v, want %v", m.name, got, m.onFork)
		}
	}
	if len(tmpl.Switches) != 2 || len(tmpl.Hosts) != 2 || len(tmpl.Switches["s1"].Ports()) != 2 {
		t.Fatal("a refused mutator changed the frozen network")
	}
	if !panics(func() { twoSwitchNet().Fork() }) {
		t.Error("Fork of a network that is not frozen did not panic")
	}
	if !panics(func() { tmpl.Fork().Freeze() }) {
		t.Error("Freeze of a fork did not panic")
	}
	if !panics(func() { NewSwitch("s", 1).Wire(-1, "x") }) || !panics(func() { NewSwitch("s", 1).Wire(maxPort+1, "x") }) {
		t.Error("Wire accepted a port outside 0..maxPort")
	}
}
