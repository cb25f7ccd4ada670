package sdn

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ndlog"
)

// The traversal record (Network.Inject) and the closed-form lap
// (Network.forward) against a walk of every hop.
//
// A seed fixes a small network with loops, random tables and a script:
// runs of 1-20 identical multi-tag packets from several hosts, with table
// changes, controller swaps and hop-limit changes (0-70) between them —
// most often between two runs of the same packet. The script is played on
// the network under test and on a hand-built reference driven by walker,
// which keeps no record and closes no lap. The two must agree on every
// counter cell, every table and the captured packets.

// walker is the reference Inject and SendFromSwitch: every hop of every
// packet goes through matchActions — no traversal record, no lap — and
// each port's neighbour is found by name, not through the resolved links.
// Controllers on a walked network send their PacketOuts through send.
type walker struct{ n *Network }

func (w walker) inject(hostID string, pkt Packet) {
	n := w.n
	h := n.Hosts[hostID]
	if h == nil {
		return
	}
	if n.Capture != nil {
		n.Capture.CapturePacket(hostID, pkt)
	}
	if pkt.Tags == 0 {
		pkt.Tags = 1
	}
	n.Walks++
	sw := n.Switches[h.Switch]
	if sw == nil {
		n.Dropped++
		return
	}
	w.hop(sw, int64(sw.PortTo(h.ID)), pkt, 0)
}

func (w walker) send(sw *Switch, port int, pkt Packet) { w.out(sw, port, pkt, 0) }

func (w walker) hop(sw *Switch, inPort int64, pkt Packet, hops int) {
	n := w.n
	if hops > n.MaxHops {
		n.Dropped++
		for t := pkt.Tags; t != 0; t &= t - 1 {
			n.HopLimitedByTag[bits.TrailingZeros64(t)]++
		}
		return
	}
	n.Hops++
	acts, miss := sw.matchActions(inPort, pkt, nil)
	if miss != 0 {
		n.Missed++
		if n.Ctrl != nil {
			n.PacketIns++
			for t := miss; t != 0; t &= t - 1 {
				n.PacketInsByTag[bits.TrailingZeros64(t)]++
			}
			mp := pkt
			mp.Tags = miss
			n.Ctrl.PacketIn(n, sw, inPort, mp)
		}
	}
	slices.SortFunc(acts, func(a, b actionGroup) int {
		return cmp.Or(cmp.Compare(a.act.Kind, b.act.Kind), cmp.Compare(a.act.Port, b.act.Port))
	})
	for _, g := range acts {
		fp := pkt
		fp.Tags = g.tags
		if g.act.Kind == ActionDrop {
			n.Dropped++
			continue
		}
		w.out(sw, g.act.Port, fp, hops+1)
	}
}

func (w walker) out(sw *Switch, port int, pkt Packet, hops int) {
	n := w.n
	name := sw.Neighbour(port)
	if h := n.Hosts[name]; h != nil {
		if bits.Len64(pkt.Tags) > len(h.received) {
			n.growCounters(pkt.Tags)
		}
		h.deliver(pkt, n.width)
		n.Delivered++
	} else if next := n.Switches[name]; next != nil {
		w.hop(next, int64(next.PortTo(sw.ID)), pkt, hops)
	} else {
		n.Dropped++
	}
}

// sender is a PacketOut primitive: Network.SendFromSwitch or walker.send.
type sender func(sw *Switch, port int, pkt Packet)

// captured is the Capture hook both sides record into.
type captured []string

func (c *captured) CapturePacket(src string, p Packet) {
	*c = append(*c, fmt.Sprintf("%s %v %#x", src, p, p.Tags))
}

// outPort derives a port from the header alone, so that a controller acts
// the same on every network it is attached to.
func outPort(p Packet) int { return int((p.SrcIP + 2*p.DstIP + p.DstPort) % 4) }

// reactiveCtl installs an exact-match entry for the missed tags and sends
// the packet on, as a reactive program does.
type reactiveCtl struct{ send sender }

func (c reactiveCtl) PacketIn(_ *Network, sw *Switch, inPort int64, p Packet) {
	sw.Install(FlowEntry{Priority: 2,
		Match:  Match{InPort: ptr(inPort), SrcIP: ptr(p.SrcIP), DstIP: ptr(p.DstIP), DstPort: ptr(p.DstPort)},
		Action: Action{Kind: ActionOutput, Port: outPort(p)}, Tags: p.Tags})
	c.send(sw, outPort(p), p)
}

// packetOutCtl forwards every missed packet itself and never installs —
// Q4's shape: identical packets keep reaching the controller, so none of
// them may be answered from the record. A PacketOut restarts the hop
// count, so a miss met while one is in flight is left to die (busy).
type packetOutCtl struct {
	send sender
	busy bool
}

func (c *packetOutCtl) PacketIn(_ *Network, sw *Switch, _ int64, p Packet) {
	if c.busy {
		return
	}
	c.busy = true
	c.send(sw, outPort(p), p)
	c.busy = false
}

// buildRandomNet builds the seed's network by hand: three switches in a
// triangle (so tables can loop packets into the hop limit), four attached
// hosts, one host whose attachment switch does not exist, and random base
// tables in which catch-all entries for every tag make complete, miss-free
// traversals common. The last switch is registered by a direct map write.
func buildRandomNet(seed int64) *Network {
	r := rand.New(rand.NewSource(seed))
	n := NewNetwork()
	n.AddSwitch(NewSwitch("s0", 10))
	n.AddSwitch(NewSwitch("s1", 11))
	n.Switches["s2"] = NewSwitch("s2", 12)
	n.Link("s0", "s1")
	n.Link("s1", "s2")
	n.Link("s2", "s0")
	for i := 0; i < 4; i++ {
		n.AddHost(NewHost(fmt.Sprintf("h%d", i), int64(i), fmt.Sprintf("s%d", r.Intn(3))))
	}
	n.Hosts["lost"] = NewHost("lost", 9, "nowhere")
	for _, id := range []string{"s0", "s1", "s2"} {
		sw := n.Switches[id]
		sw.Install(randomEntries(r, 1+r.Intn(12))...)
		if r.Intn(4) != 0 {
			sw.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionKind(r.Intn(2)), Port: 1 + r.Intn(4)}, Tags: ndlog.AllTags})
		}
	}
	return n
}

// received reads a host's totals under all 64 tags through the accessor.
func received(h *Host) (out [64]int64) {
	for tag := range out {
		out[tag] = h.ReceivedFor(tag)
	}
	return out
}

// netDiff names the first cell on which two networks differ, or "".
func netDiff(a, b *Network) string {
	type stats struct {
		Delivered, Dropped, Missed, Hops, PacketIns int64
		ByTag, HopLimited                           [64]int64
	}
	sa := stats{a.Delivered, a.Dropped, a.Missed, a.Hops, a.PacketIns, a.PacketInsByTag, a.HopLimitedByTag}
	sb := stats{b.Delivered, b.Dropped, b.Missed, b.Hops, b.PacketIns, b.PacketInsByTag, b.HopLimitedByTag}
	if sa != sb {
		return fmt.Sprintf("network counters %+v, want %+v", sa, sb)
	}
	for id, ha := range a.Hosts {
		hb := b.Hosts[id]
		if got, want := received(ha), received(hb); got != want {
			return fmt.Sprintf("host %s received %v .. [40]=%d, want %v .. [40]=%d", id, got[:4], got[wideBit], want[:4], want[wideBit])
		}
		// Every port and source either side counted under, cell by cell.
		for _, h := range []*Host{ha, hb} {
			for port := range h.byPort {
				for tag := 0; tag < 64; tag++ {
					if got, want := ha.PortCountFor(port, tag), hb.PortCountFor(port, tag); got != want {
						return fmt.Sprintf("host %s port %d tag %d: %d, want %d", id, port, tag, got, want)
					}
				}
			}
			for src := range h.bySrc {
				for tag := 0; tag < 64; tag++ {
					if got, want := ha.SrcCountFor(src, tag), hb.SrcCountFor(src, tag); got != want {
						return fmt.Sprintf("host %s source %d tag %d: %d, want %d", id, src, tag, got, want)
					}
				}
			}
		}
	}
	for id, s := range a.Switches {
		if !sameEntries(s.Table(), b.Switches[id].Table()) {
			return fmt.Sprintf("switch %s table\n%v\nwant\n%v", id, s.Table(), b.Switches[id].Table())
		}
	}
	return ""
}

// wideTag is a tag far above the 0b1111 of the scripts' first 60 runs.
const (
	wideBit = 40
	wideTag = 1 << wideBit
)

// tally is what a script exercised on the network under test: injections
// answered from the record, packets delivered under wideTag, laps closed.
type tally struct{ hits, wide, laps int64 }

// recordDiverges plays the seed's script on prod — the seed's network,
// hand-built or forked — and on a reference walker, and describes the
// first divergence ("" if none).
func recordDiverges(seed int64, prod *Network) (string, tally) {
	ref := buildRandomNet(seed)
	w := walker{ref}
	var gotCap, wantCap captured
	prod.Capture, ref.Capture = &gotCap, &wantCap
	both := func(f func(n *Network)) { f(prod); f(ref) }
	sendOf := func(n *Network) sender {
		if n == ref {
			return w.send
		}
		return n.SendFromSwitch
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	hostIDs := []string{"h0", "h1", "h2", "h3", "lost", "nobody"}
	swIDs := []string{"s0", "s1", "s2"}
	var injected int64
	var t tally
	var src string
	var p Packet
	for run := 0; run < 120; run++ {
		sw := swIDs[r.Intn(3)]
		switch r.Intn(14) {
		case 0, 9: // an effective install, every other one aimed at the packet in flight
			e := randomEntries(r, 1)[0]
			if r.Intn(2) == 0 {
				e.Priority, e.Tags = 3+r.Intn(2), e.Tags|r.Uint64()&0b1111
				e.Match = Match{SrcIP: ptr(p.SrcIP), DstPort: ptr(p.DstPort)}
				if r.Intn(2) == 0 {
					e.Match = Match{DstIP: ptr(p.DstIP)}
				}
			}
			both(func(n *Network) { n.Switches[sw].Install(e) })
		case 1: // a re-install an existing entry covers: a no-op
			if tbl := ref.Switches[sw].Table(); len(tbl) > 0 {
				e := tbl[r.Intn(len(tbl))]
				e.Tags &= r.Uint64()
				both(func(n *Network) { n.Switches[sw].Install(e) })
			}
		case 2:
			if r.Intn(3) == 0 {
				both(func(n *Network) { n.Switches[sw].ClearTable() })
			}
		case 3:
			both(func(n *Network) { n.Ctrl = reactiveCtl{sendOf(n)} })
		case 4:
			both(func(n *Network) { n.Ctrl = &packetOutCtl{send: sendOf(n)} })
		case 5:
			both(func(n *Network) { n.Ctrl = nil })
		case 6, 7: // laps close at every distance from the limit, or not at all
			hops := r.Intn(71)
			both(func(n *Network) { n.MaxHops = hops })
		case 8:
			if r.Intn(4) == 0 {
				t.add(prod, injected)
				both(func(n *Network) { n.ResetCounters() })
				injected = 0
			}
		}
		// Mostly the previous run's packet again, so that whatever changed
		// above lies between two identical injections.
		if run == 0 || r.Intn(3) == 0 {
			src = hostIDs[r.Intn(len(hostIDs))]
			_, p = randomPacket(r)
			p.Tags = r.Uint64() & 0b1111 // zero: the single-variant default
			if run >= 60 && r.Intn(2) == 0 {
				// Mid-run the tag set widens past every counter row laid
				// out so far: the rows grow under the record.
				p.Tags |= wideTag
			}
		}
		for i, k := 0, 1+r.Intn(20); i < k; i++ {
			prod.Inject(src, p)
			w.inject(src, p)
			if src != "nobody" {
				injected++
			}
		}
		if d := netDiff(prod, ref); d != "" {
			return fmt.Sprintf("seed %d run %d (%s x %v): %s", seed, run, src, p, d), t
		}
		if ref.Walks != injected || prod.Walks > injected {
			return fmt.Sprintf("seed %d run %d: %d injections, reference walked %d, prod %d",
				seed, run, injected, ref.Walks, prod.Walks), t
		}
	}
	if !slices.Equal(gotCap, wantCap) {
		return fmt.Sprintf("seed %d: captured %d packets, want %d, or in another order", seed, len(gotCap), len(wantCap)), t
	}
	t.add(prod, injected)
	return "", t
}

// add counts what prod did since its counters were last reset.
func (t *tally) add(prod *Network, injected int64) {
	t.hits += injected - prod.Walks
	t.wide += deliveredUnder(prod, wideBit)
	t.laps += prod.Laps
}

// deliveredUnder sums the hosts' totals under one tag.
func deliveredUnder(n *Network, tag int) (sum int64) {
	for _, h := range n.Hosts {
		sum += h.ReceivedFor(tag)
	}
	return sum
}

func TestRecordedTraversalMatchesWalk(t *testing.T) {
	var built, forked tally
	for seed := int64(0); seed < 60; seed++ {
		d, b := recordDiverges(seed, buildRandomNet(seed))
		if d != "" {
			t.Fatalf("hand-built: %s", d)
		}
		tmpl := buildRandomNet(seed)
		tmpl.Freeze()
		d, f := recordDiverges(seed, tmpl.Fork())
		if d != "" {
			t.Fatalf("fork: %s", d)
		}
		if b != f {
			t.Fatalf("seed %d: hand-built %+v, forked %+v", seed, b, f)
		}
		built.hits, built.wide, built.laps = built.hits+b.hits, built.wide+b.wide, built.laps+b.laps
		forked.hits, forked.wide, forked.laps = forked.hits+f.hits, forked.wide+f.wide, forked.laps+f.laps
	}
	if built.hits == 0 || built.laps == 0 || built != forked {
		t.Fatalf("hand-built %+v, forked %+v: want equal, with injections answered from the record and laps closed", built, forked)
	}
	if built.wide == 0 {
		t.Fatal("no packet was delivered under the tag that widens the counter rows")
	}
	t.Logf("per mode: %d injections answered from the record, %d laps closed, %d deliveries under the wide tag",
		built.hits, built.laps, built.wide)
}

// pingPong is twoSwitchNet with s2 sending everything back to s1, and s1
// sending on to s2 everything (s1 "all"), only what came from s2
// ("from-s2"), or nothing, so that every packet misses there ("none").
func pingPong(s1 string) *Network {
	n := twoSwitchNet()
	sw1, sw2 := n.Switches["s1"], n.Switches["s2"]
	sw2.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: sw2.PortTo("s1")}, Tags: ndlog.AllTags})
	m := Match{}
	switch s1 {
	case "none":
		return n
	case "from-s2":
		m.InPort = ptr(int64(sw1.PortTo("s2")))
	}
	sw1.Install(FlowEntry{Match: m, Action: Action{Kind: ActionOutput, Port: sw1.PortTo("s2")}, Tags: ndlog.AllTags})
	return n
}

// countedCtl answers a PacketIn by sending the packet out of each of the
// ports, in order, while calls stays positive.
type countedCtl struct {
	send  sender
	ports []int
	calls int
}

func (c *countedCtl) PacketIn(_ *Network, sw *Switch, _ int64, p Packet) {
	if c.calls == 0 {
		return
	}
	c.calls--
	for _, port := range c.ports {
		c.send(sw, port, p)
	}
}

// installCtl answers a PacketIn by installing e on the switch that missed.
type installCtl struct{ e FlowEntry }

func (c installCtl) PacketIn(_ *Network, sw *Switch, _ int64, _ Packet) { sw.Install(c.e) }

// Scripted loops, each against the reference walker: a ping-pong is
// charged in closed form at every hop limit; a loop whose every lap passes
// the controller — which delivers a copy to a host and sends the packet on
// each time round — is walked; a loop entered through a PacketOut is closed
// on the PacketOut's own hop count.
func TestLoopsCloseInClosedForm(t *testing.T) {
	pkt := Packet{SrcIP: 101, DstIP: 999, Tags: 0b101}
	for _, maxHops := range []int{0, 1, 2, 3, 4, 5, 17, 64} {
		prod, ref := pingPong("all"), pingPong("all")
		prod.MaxHops, ref.MaxHops = maxHops, maxHops
		prod.Inject("h1", pkt)
		walker{ref}.inject("h1", pkt)
		if d := netDiff(prod, ref); d != "" {
			t.Fatalf("ping-pong, MaxHops %d: %s", maxHops, d)
		}
		if prod.Hops != int64(maxHops+1) || prod.Dropped != 1 || prod.HopLimitedByTag[2] != 1 {
			t.Fatalf("ping-pong, MaxHops %d: hops %d, dropped %d, hop-limited under tag 2 %d; want %d, 1, 1",
				maxHops, prod.Hops, prod.Dropped, prod.HopLimitedByTag[2], maxHops+1)
		}
		if maxHops == 64 && prod.Laps != 1 {
			t.Fatalf("ping-pong: %d laps closed, want 1", prod.Laps)
		}
	}

	// Every lap misses at s1; the controller delivers a copy to h1 and sends
	// the packet on to s2, five times.
	prod, ref := pingPong("none"), pingPong("none")
	s1 := prod.Switches["s1"]
	toH1, toS2 := s1.PortTo("h1"), s1.PortTo("s2")
	prod.Ctrl = &countedCtl{send: prod.SendFromSwitch, ports: []int{toH1, toS2}, calls: 5}
	ref.Ctrl = &countedCtl{send: walker{ref}.send, ports: []int{toH1, toS2}, calls: 5}
	prod.Inject("h1", pkt)
	walker{ref}.inject("h1", pkt)
	if d := netDiff(prod, ref); d != "" {
		t.Fatalf("lap through the controller: %s", d)
	}
	if prod.Laps != 0 || prod.Delivered != 5 || prod.PacketIns != 6 {
		t.Fatalf("lap through the controller: %d laps, %d delivered, %d PacketIns; want 0, 5, 6",
			prod.Laps, prod.Delivered, prod.PacketIns)
	}

	// The second time round s1 misses under tag 2 and the controller sends
	// the flow to h1 from then on, under every tag: tag 0 goes on round the
	// loop it was on, but the loop is not one any more — the miss starts a
	// new run, and the packet is delivered at s1 the third time round.
	prod, ref = pingPong("none"), pingPong("none")
	for _, n := range []*Network{prod, ref} {
		n.Switches["s1"].Install(
			FlowEntry{Match: Match{InPort: ptr(int64(toH1))}, Action: Action{Kind: ActionOutput, Port: toS2}, Tags: ndlog.AllTags},
			FlowEntry{Match: Match{InPort: ptr(int64(toS2))}, Action: Action{Kind: ActionOutput, Port: toS2}, Tags: 1})
		n.Ctrl = installCtl{FlowEntry{Priority: 5, Match: Match{SrcIP: ptr(pkt.SrcIP)},
			Action: Action{Kind: ActionOutput, Port: toH1}, Tags: ndlog.AllTags}}
	}
	prod.Inject("h1", pkt)
	walker{ref}.inject("h1", pkt)
	if d := netDiff(prod, ref); d != "" {
		t.Fatalf("loop broken by the controller: %s", d)
	}
	if prod.Laps != 0 || prod.Delivered != 1 || prod.Hops != 5 {
		t.Fatalf("loop broken by the controller: %d laps, %d delivered, %d hops; want 0, 1, 5", prod.Laps, prod.Delivered, prod.Hops)
	}

	// h1's packet misses at s1; the controller's one PacketOut to s2 starts a
	// ping-pong of its own, hop 0 at s2.
	prod, ref = pingPong("from-s2"), pingPong("from-s2")
	prod.Ctrl = &countedCtl{send: prod.SendFromSwitch, ports: []int{toS2}, calls: 1}
	ref.Ctrl = &countedCtl{send: walker{ref}.send, ports: []int{toS2}, calls: 1}
	prod.Inject("h1", pkt)
	walker{ref}.inject("h1", pkt)
	if d := netDiff(prod, ref); d != "" {
		t.Fatalf("loop behind a PacketOut: %s", d)
	}
	if prod.Hops != 1+int64(prod.MaxHops+1) || prod.Dropped != 1 || prod.Laps != 1 {
		t.Fatalf("loop behind a PacketOut: hops %d, dropped %d, laps %d; want %d, 1, 1",
			prod.Hops, prod.Dropped, prod.Laps, prod.MaxHops+2)
	}
}

// Counter rows are as wide as the widest tag set delivered: a packet under
// a higher tag grows them in place of the record that points into them.
func TestCountersGrowWithTheTagSet(t *testing.T) {
	n := twoSwitchNet()
	s1, s2 := n.Switches["s1"], n.Switches["s2"]
	s1.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: s1.PortTo("s2")}, Tags: ndlog.AllTags})
	s2.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: s2.PortTo("h2")}, Tags: ndlog.AllTags})
	h2 := n.Hosts["h2"]
	narrow := Packet{SrcIP: 101, DstIP: 102, DstPort: 80, Tags: 1}
	for i := 0; i < 3; i++ {
		n.Inject("h1", narrow)
	}
	if n.width != 1 || n.Walks != 1 {
		t.Fatalf("after three single-tag packets: width %d, %d walks; want 1 and 1", n.width, n.Walks)
	}
	wide := narrow
	wide.Tags = wideTag | 1
	for i := 0; i < 2; i++ {
		n.Inject("h1", wide)
	}
	n.Inject("h1", narrow)
	if n.width != 41 || n.Walks != 3 {
		t.Fatalf("after the wide packets: width %d, %d walks; want 41 and 3", n.width, n.Walks)
	}
	for _, c := range []struct {
		tag  int
		want int64
	}{{0, 6}, {wideBit, 2}, {1, 0}, {63, 0}} {
		if h2.ReceivedFor(c.tag) != c.want || h2.PortCountFor(80, c.tag) != c.want || h2.SrcCountFor(101, c.tag) != c.want {
			t.Errorf("tag %d: received %d, port 80 %d, source 101 %d; want %d each", c.tag,
				h2.ReceivedFor(c.tag), h2.PortCountFor(80, c.tag), h2.SrcCountFor(101, c.tag), c.want)
		}
	}
	if got := n.Distribution(40); !slices.Equal(got, []int64{0, 2}) {
		t.Errorf("Distribution(40) = %v, want [0 2]", got)
	}
	n.ResetCounters()
	n.Inject("h1", wide)
	if h2.ReceivedFor(0) != 1 || h2.ReceivedFor(40) != 1 || h2.PortCountFor(80, 40) != 1 {
		t.Errorf("after ResetCounters: received %d/%d, port 80 %d; want 1 each",
			h2.ReceivedFor(0), h2.ReceivedFor(40), h2.PortCountFor(80, 40))
	}

	// A host added after the slab was laid out gets its share in the middle
	// of a walk that has already recorded a delivery to h2: that walk's
	// record points into the rows the slab replaced and must not be applied.
	n = twoSwitchNet()
	s1, s2 = n.Switches["s1"], n.Switches["s2"]
	s1.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: s1.PortTo("s2")}, Tags: 0b01},
		FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: 7}, Tags: 0b10})
	s2.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: s2.PortTo("h2")}, Tags: ndlog.AllTags})
	both := Packet{SrcIP: 101, Tags: 0b11}
	n.Inject("h1", both)
	n.Inject("h1", both)
	h3 := NewHost("h3", 103, "s1")
	n.AddHostAt(h3, 7)
	for i := 0; i < 3; i++ {
		n.Inject("h1", both)
	}
	if got, got3 := n.Hosts["h2"].ReceivedFor(0), h3.ReceivedFor(1); got != 5 || got3 != 3 || n.Walks != 3 {
		t.Errorf("h2 received %d, the late host %d, after %d walks; want 5, 3 and 3", got, got3, n.Walks)
	}
}

// An install on a switch the network only knows through a direct map write
// must still be seen between two identical injections.
func TestInstallOnMapWrittenSwitchIsHonoured(t *testing.T) {
	n := NewNetwork()
	s := NewSwitch("s", 1)
	n.Switches["s"] = s
	n.Hosts["a"], n.Hosts["b"] = NewHost("a", 1, "s"), NewHost("b", 2, "s")
	s.Wire(1, "a")
	s.Wire(2, "b")
	s.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: 2}, Tags: 1})
	n.Inject("a", Packet{DstIP: 2})
	n.Inject("a", Packet{DstIP: 2})
	if got := n.Hosts["b"].ReceivedFor(0); got != 2 || n.Walks != 1 {
		t.Fatalf("b received %d after %d walks, want 2 after 1", got, n.Walks)
	}
	s.Install(FlowEntry{Match: Match{}, Action: Action{Kind: ActionOutput, Port: 2}, Tags: 1}) // covered: changes nothing
	n.Inject("a", Packet{DstIP: 2})
	if got := n.Hosts["b"].ReceivedFor(0); got != 3 || n.Walks != 1 {
		t.Fatalf("after a covered re-install: b received %d after %d walks, want 3 after 1", got, n.Walks)
	}
	s.Install(FlowEntry{Priority: 1, Match: Match{DstIP: ptr(2)}, Action: Action{Kind: ActionDrop}, Tags: 1})
	n.Inject("a", Packet{DstIP: 2})
	if got := n.Hosts["b"].ReceivedFor(0); got != 3 || n.Dropped != 1 {
		t.Fatalf("after the drop entry: b received %d, dropped %d; want 3 and 1", got, n.Dropped)
	}
}

// A host whose attachment switch is not registered cannot inject: its
// packets are dropped and counted, on a built network and on a fork.
func TestUnattachedHostDrops(t *testing.T) {
	n := twoSwitchNet()
	n.Hosts["lost"] = NewHost("lost", 9, "nowhere")
	n.Inject("lost", Packet{})
	n.Inject("h1", Packet{}) // resolves the links
	n.Inject("lost", Packet{})
	if n.Dropped != 2 || n.Hops != 1 {
		t.Fatalf("dropped %d hops %d, want 2 and 1", n.Dropped, n.Hops)
	}
	tmpl := twoSwitchNet()
	tmpl.Hosts["lost"] = NewHost("lost", 9, "nowhere")
	tmpl.Freeze()
	f := tmpl.Fork()
	f.Inject("lost", Packet{})
	if f.Dropped != 1 || f.Hops != 0 {
		t.Fatalf("fork: dropped %d hops %d, want 1 and 0", f.Dropped, f.Hops)
	}
}
