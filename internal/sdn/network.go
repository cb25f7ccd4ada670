package sdn

import (
	"fmt"
	"math/bits"
	"sort"
)

// Switch is one forwarding element: a numbered switch with ports wired to
// neighbours and a prioritized, tagged flow table.
type Switch struct {
	ID     string
	Num    int64 // numeric ID used by controller programs (Swi)
	ports  map[int]string
	portOf map[string]int // reverse of ports: neighbour -> port

	// idx holds the flow table and answers both matching and duplicate
	// detection (see flowindex.go).
	idx  flowIndex
	mcur []idxCursor // reusable merge cursors for lookups

	// net is the network the switch was registered with; links is its
	// wiring resolved against that network, indexed by port (see
	// Network.resolveLinks). ord is the switch's position in a frozen
	// network's fork template.
	net   *Network
	links []link
	ord   int
}

// maxPort bounds port numbers, so that the resolved wiring can be a slice
// indexed by port (OpenFlow's physical ports end below it too).
const maxPort = 1<<16 - 1

// NewSwitch creates a switch.
func NewSwitch(id string, num int64) *Switch {
	return &Switch{ID: id, Num: num, ports: make(map[int]string), portOf: make(map[string]int)}
}

// Wire connects a port (0..65535) to a neighbour node (switch or host) by
// ID. It panics on a switch of a frozen or forked network.
func (s *Switch) Wire(port int, neighbour string) {
	if port < 0 || port > maxPort {
		panic(fmt.Sprintf("sdn: switch %s: port %d out of range 0..%d", s.ID, port, maxPort))
	}
	if s.net != nil {
		s.net.mutate("Wire", sealWiring)
	}
	if old, ok := s.ports[port]; ok {
		delete(s.portOf, old)
	}
	s.ports[port] = neighbour
	s.portOf[neighbour] = port
}

// PortTo returns the port leading to a neighbour, or -1.
func (s *Switch) PortTo(neighbour string) int {
	if p, ok := s.portOf[neighbour]; ok {
		return p
	}
	return -1
}

// Neighbour returns the node wired to a port ("" if none).
func (s *Switch) Neighbour(port int) string { return s.ports[port] }

// Ports returns the wired ports in ascending order.
func (s *Switch) Ports() []int {
	out := make([]int, 0, len(s.ports))
	for p := range s.ports {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Install adds flow entries, in order. Re-installing an entry whose tag
// set is already covered by an identical earlier entry is a no-op;
// otherwise the entry is appended, so that ties between equal-priority
// entries resolve by installation order exactly as they would in a
// per-candidate sequential run. (Merging tag sets into earlier entries
// would silently promote a later derivation ahead of the entry that
// should win the tie.)
// On a fork, an entry the frozen template already covers is the same
// no-op. It panics on a switch of a frozen network.
func (s *Switch) Install(entries ...FlowEntry) {
	if s.net != nil {
		s.net.mutate("Install", sealAll)
	}
	added := false
	for _, e := range entries {
		// A batch is the best guess at how many buckets a new signature
		// will hold (a proactive fabric installs one batch per switch).
		if s.idx.install(e, len(entries)) {
			added = true
		}
	}
	if s.net != nil && added {
		s.net.epoch++ // a covered re-install changes no match and keeps the record
	}
}

// ClearTable removes all flow entries; on a fork that includes the ones
// it reads from its frozen template, which keeps them. It panics on a
// switch of a frozen network.
func (s *Switch) ClearTable() {
	if s.net != nil {
		s.net.mutate("ClearTable", sealAll)
		s.net.epoch++
	}
	s.idx = flowIndex{}
}

// actionGroup is one action and the tag set it won during matching.
type actionGroup struct {
	act  Action
	tags uint64
}

// addAction ORs tags into the action's group, appending a new group when
// the action is new; the distinct-action count per packet is tiny, so a
// linear probe beats a map (and its per-hop allocation).
func addAction(acts []actionGroup, a Action, tags uint64) []actionGroup {
	for i := range acts {
		if acts[i].act == a {
			acts[i].tags |= tags
			return acts
		}
	}
	return append(acts, actionGroup{act: a, tags: tags})
}

// matchGroups is the map-shaped view of matchActions, kept for tests and
// diagnostics.
func (s *Switch) matchGroups(inPort int64, p Packet) (groups map[Action]uint64, miss uint64) {
	acts, miss := s.matchActions(inPort, p, nil)
	groups = make(map[Action]uint64, len(acts))
	for _, g := range acts {
		groups[g.act] |= g.tags
	}
	return groups, miss
}

// Host is an end host with an IP; it counts the packets it receives per
// backtesting tag, which is the raw material for the §4.3 metrics.
type Host struct {
	ID     string
	IP     int64
	Switch string // attachment switch ID

	// received counts delivered packets per tag bit index; byPort counts
	// them per (destination port, tag) for service-level checks (e.g. "H2
	// receives HTTP requests") and bySrc per (source IP, tag) for
	// client-level checks (e.g. "the server receives H1's queries"). Every
	// row is Network.width columns wide — as many as the widest tag set
	// delivered so far needs, not 64 — and received is the host's share of
	// one slab per network (see Network.growCounters). All three are nil
	// until the first delivery; read them through ReceivedFor, PortCountFor
	// and SrcCountFor.
	received []int64
	byPort   map[int64][]int64
	bySrc    map[int64][]int64

	// sw and inPort are the attachment resolved against the host's network
	// (see Network.attach); sw is nil while the host is unattached. ord is
	// the position in a frozen network's fork template. inPort and ord are
	// 32 bits wide (Wire keeps ports within 16) so that the pair costs a
	// fork's host slab one word per host.
	sw          *Switch
	inPort, ord int32
}

// NewHost creates a host.
func NewHost(id string, ip int64, sw string) *Host {
	return &Host{ID: id, IP: ip, Switch: sw}
}

// deliver records a packet delivery for every tag in the packet's set and
// returns the per-port and per-source counter rows it counted into; a new
// row is width columns wide, like the host's totals.
func (h *Host) deliver(p Packet, width int) (pp, ps []int64) {
	pp = h.byPort[p.DstPort]
	if pp == nil {
		if h.byPort == nil {
			h.byPort = make(map[int64][]int64)
		}
		pp = make([]int64, width)
		h.byPort[p.DstPort] = pp
	}
	ps = h.bySrc[p.SrcIP]
	if ps == nil {
		if h.bySrc == nil {
			h.bySrc = make(map[int64][]int64)
		}
		ps = make([]int64, width)
		h.bySrc[p.SrcIP] = ps
	}
	h.count(p.Tags, pp, ps)
	return pp, ps
}

// count adds one delivery under every tag of the set to the host's totals
// and to the two resolved counter rows.
func (h *Host) count(tags uint64, pp, ps []int64) {
	for t := tags; t != 0; t &= t - 1 {
		b := bits.TrailingZeros64(t)
		h.received[b]++
		pp[b]++
		ps[b]++
	}
}

// at reads one tag's column of a counter row; a tag beyond the row's width
// was never delivered under.
func at(row []int64, tag int) int64 {
	if tag < len(row) {
		return row[tag]
	}
	return 0
}

// ReceivedFor returns the host's delivered-packet count under one tag.
func (h *Host) ReceivedFor(tag int) int64 { return at(h.received, tag) }

// PortCountFor returns deliveries to a destination port under one tag.
func (h *Host) PortCountFor(port int64, tag int) int64 { return at(h.byPort[port], tag) }

// SrcCountFor returns deliveries from a source IP under one tag.
func (h *Host) SrcCountFor(src int64, tag int) int64 { return at(h.bySrc[src], tag) }

// Controller handles PacketIn events: a switch had no matching flow entry
// for (part of) a packet's tag set.
type Controller interface {
	PacketIn(net *Network, sw *Switch, inPort int64, pkt Packet)
}

// PacketCapture observes every packet injected at a host — the hook a
// durable trace store attaches to record live traffic as §5.4 log
// records for later replay. Implementations must tolerate being called
// from whatever goroutine drives injection.
type PacketCapture interface {
	CapturePacket(srcHost string, pkt Packet)
}

// Network is the simulated data plane: switches, hosts, and the controller.
type Network struct {
	Switches map[string]*Switch
	Hosts    map[string]*Host
	Ctrl     Controller

	// Capture, when set, observes every injected packet before
	// forwarding — the attachment point for durable trace recording.
	Capture PacketCapture

	// MaxHops bounds forwarding loops (default 64).
	MaxHops int

	// hostIDCache is the sorted host-ID list Distribution reads, rebuilt
	// whenever the host count changes; byNum finds switches by numeric ID
	// in constant time for the controller's derived-tuple application, and
	// byIP hosts by address for route installation.
	hostIDCache []string
	byNum       map[int64]*Switch
	byIP        map[int64]*Host

	// seal is what Freeze and Fork took away (see fork.go); linked records
	// that every switch's links match the current wiring.
	seal   uint8
	linked bool
	// swOrder and hostOrder are a frozen network's fork template: its
	// nodes in the order Fork lays their copies out.
	swOrder   []*Switch
	hostOrder []*Host

	// width is how many tag columns every host counter row has: the highest
	// tag bit delivered under so far, plus one (see growCounters).
	width int

	// epoch advances whenever a walk could come out differently or count
	// into different rows: on every effective Install, ClearTable, wiring
	// change, ResetCounters and widening of the counter rows. last is the
	// previous injection's traversal,
	// valid while the epoch stands (see Inject); recording is set while
	// Inject walks a packet that has so far hit neither a table miss nor
	// the hop limit.
	epoch     uint64
	last      traversal
	recording bool

	// Stats.
	Delivered int64
	Dropped   int64
	Missed    int64 // packets (or packet forks) that died on a table miss
	PacketIns int64
	Hops      int64
	// Walks counts the injections that walked the flow tables; the others
	// (injections at a known host minus Walks) were applied from the
	// previous traversal's record.
	Walks int64
	// Laps counts the packet copies whose forwarding loop was charged in
	// closed form instead of walked to the hop limit (see forward).
	Laps int64
	// PacketInsByTag counts controller PacketIns per backtesting tag,
	// the controller-load metric used to reject repairs that degenerate
	// into per-packet forwarding (§4.3 operator metrics).
	PacketInsByTag [64]int64
	// HopLimitedByTag counts, per backtesting tag, the packet copies
	// dropped at the hop limit — the evidence that a candidate's tables
	// send traffic round a forwarding loop.
	HopLimitedByTag [64]int64
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{
		Switches: make(map[string]*Switch),
		Hosts:    make(map[string]*Host),
		MaxHops:  64,
	}
}

// AddSwitch registers a switch. Like every topology mutator it panics on
// a frozen or forked network.
func (n *Network) AddSwitch(s *Switch) {
	n.mutate("AddSwitch", sealWiring)
	n.Switches[s.ID] = s
	if n.byNum == nil {
		n.byNum = make(map[int64]*Switch)
	}
	n.byNum[s.Num] = s
	s.net = n
}

// SwitchByNum returns the switch with the given numeric ID (the Swi value
// controller programs use), or nil. Switches registered via AddSwitch are
// found in constant time; direct map writes fall back to a scan.
func (n *Network) SwitchByNum(num int64) *Switch {
	if s, ok := n.byNum[num]; ok && n.Switches[s.ID] == s {
		return s
	}
	for _, s := range n.Switches {
		if s.Num == num {
			return s
		}
	}
	return nil
}

// AddHost registers a host and wires it to its switch's next free port.
func (n *Network) AddHost(h *Host) int {
	sw := n.Switches[h.Switch]
	port := 1
	for sw != nil && sw.ports[port] != "" {
		port++
	}
	n.AddHostAt(h, port)
	return port
}

// AddHostAt registers a host on a specific switch port (scenario zones
// wire ports explicitly so controller programs can name them).
func (n *Network) AddHostAt(h *Host, port int) {
	n.mutate("AddHost", sealWiring)
	sw := n.Switches[h.Switch]
	if sw == nil {
		panic(fmt.Sprintf("sdn: host %s references unknown switch %s", h.ID, h.Switch))
	}
	n.Hosts[h.ID] = h
	if n.byIP == nil {
		n.byIP = make(map[int64]*Host)
	}
	n.byIP[h.IP] = h
	sw.Wire(port, h.ID)
}

// Link wires two switches together on their next free ports.
func (n *Network) Link(a, b string) (int, int) {
	n.mutate("Link", sealWiring)
	sa, sb := n.Switches[a], n.Switches[b]
	if sa == nil || sb == nil {
		panic(fmt.Sprintf("sdn: link between unknown switches %s-%s", a, b))
	}
	pa, pb := 1, 1
	for sa.ports[pa] != "" {
		pa++
	}
	for sb.ports[pb] != "" {
		pb++
	}
	sa.Wire(pa, b)
	sb.Wire(pb, a)
	return pa, pb
}

// HostByIP finds a host by IP (nil if none). Hosts registered via
// AddHost/AddHostAt are found in constant time; direct map writes, and
// forks (which are not given the map: routes are installed before
// Freeze), fall back to a scan.
func (n *Network) HostByIP(ip int64) *Host {
	if h, ok := n.byIP[ip]; ok && n.Hosts[h.ID] == h {
		return h
	}
	for _, h := range n.Hosts {
		if h.IP == ip {
			return h
		}
	}
	return nil
}

// delivery is one host delivery of a recorded traversal, with the host's
// counter rows for the packet's destination port and source IP resolved.
type delivery struct {
	host   *Host
	tags   uint64
	pp, ps []int64
}

// traversal is everything one injection did, in the form a repeat of it
// needs: who sent what, under which epoch and hop limit, where copies were
// delivered, and how far the network counters moved. src is nil while
// there is no record.
type traversal struct {
	src        *Host
	pkt        Packet
	epoch      uint64
	maxHops    int
	deliveries []delivery

	delivered, dropped, hops int64
}

// Inject introduces a packet at a host's attachment switch and forwards it
// until delivery, drop, miss, or hop exhaustion. Packets with a zero tag
// set default to tag bit 0 (the single-variant case); a packet from an
// unknown host is ignored and one from a host whose attachment switch is
// not registered is counted as Dropped. It panics on a frozen network,
// whose counters every fork starts from.
//
// A trace is runs of identical packets, so the network remembers its
// previous injection — source, header and tag set, every delivery with the
// host's counter rows resolved, and the Delivered/Dropped/Hops deltas —
// and applies that record when the next injection is identical, instead of
// walking the tables again. The record is exact, not approximate: it is
// stamped with MaxHops and with an epoch that every effective Install,
// ClearTable, wiring change and ResetCounters advances, and a traversal
// that met a table miss or the hop limit is never recorded — so whatever
// reaches the controller (whose answer may depend on state the network
// cannot see) or follows a table change is walked packet by packet. A
// packet under a higher tag than the host counter rows have columns for
// replaces those rows, the ones the record points into, and so advances
// the epoch too. The Capture hook sees every packet either way.
func (n *Network) Inject(hostID string, pkt Packet) {
	n.mutate("Inject", sealAll)
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
	r := &n.last
	if r.src == h && r.pkt == pkt && r.epoch == n.epoch && r.maxHops == n.MaxHops {
		for i := range r.deliveries {
			d := &r.deliveries[i]
			d.host.count(d.tags, d.pp, d.ps)
		}
		n.Delivered += r.delivered
		n.Dropped += r.dropped
		n.Hops += r.hops
		return
	}
	n.Walks++
	if !n.linked {
		n.resolveLinks()
	}
	if h.sw == nil && !n.attach(h) {
		n.Dropped++
		return
	}
	if bits.Len64(pkt.Tags) > n.width {
		n.growCounters(pkt.Tags) // before the epoch is read: this walk's record stands
	}
	r.src, r.deliveries = nil, r.deliveries[:0]
	epoch, delivered, dropped, hops := n.epoch, n.Delivered, n.Dropped, n.Hops
	n.recording = true
	n.forward(h.sw, int64(h.inPort), pkt, 0, lap{})
	if n.recording {
		n.recording = false
		*r = traversal{src: h, pkt: pkt, epoch: epoch, maxHops: n.MaxHops, deliveries: r.deliveries,
			delivered: n.Delivered - delivered, dropped: n.Dropped - dropped, hops: n.Hops - hops}
	}
}

// SendFromSwitch emits a packet out of a switch port (the PacketOut
// primitive available to controllers).
func (n *Network) SendFromSwitch(sw *Switch, port int, pkt Packet) {
	n.mutate("SendFromSwitch", sealAll)
	n.emit(sw, port, pkt, 0, lap{})
}

// lap is the anchor of a walk's current run of pure hops: hops at which
// matching meets no miss and yields one action group, so that the whole
// packet, unchanged, moves on to one port. Such a hop runs no controller
// and moves no epoch, so when a run reaches the switch and in-port of one
// of its own earlier hops again, the packet is on a loop it will circle
// until the hop limit. The anchor is one earlier hop of the run (sw, in),
// compared against the next power hops (since counts them) and then
// replaced by the latest hop with power doubled — Brent's cycle detection,
// which finds any loop within a few laps of entering it, costs two
// compares per hop and lives on the stack. The zero value starts a run.
type lap struct {
	sw           *Switch
	in           int64
	power, since int
}

// forward runs the match-and-forward loop at one switch; a is the anchor
// of the run of pure hops that led here (see lap).
//
// A packet back at its run's anchor is charged in closed form: the hops
// left to the limit, the hop-limit drop, and no record — exactly what
// walking the loop would have counted.
func (n *Network) forward(sw *Switch, inPort int64, pkt Packet, hops int, a lap) {
	if hops > n.MaxHops || a.sw == sw && a.in == inPort {
		if hops <= n.MaxHops {
			n.Hops += int64(n.MaxHops - hops + 1)
			n.Laps++
		}
		n.Dropped++
		for t := pkt.Tags; t != 0; t &= t - 1 {
			n.HopLimitedByTag[bits.TrailingZeros64(t)]++
		}
		n.recording = false
		return
	}
	n.Hops++
	var actsBuf [4]actionGroup
	acts, miss := sw.matchActions(inPort, pkt, actsBuf[:0])
	// A miss or a split starts a new run; a lone drop, or a lone output to
	// a host or an unwired port, ends the walk along with the run.
	if miss != 0 || len(acts) != 1 {
		a = lap{}
	} else {
		if a.since == a.power {
			a = lap{sw: sw, in: inPort, power: max(1, 2*a.power)}
		}
		a.since++
	}
	if miss != 0 {
		n.Missed++
		n.recording = false
		if n.Ctrl != nil {
			n.PacketIns++
			for t := miss; t != 0; t &= t - 1 {
				n.PacketInsByTag[bits.TrailingZeros64(t)]++
			}
			mp := pkt
			mp.Tags = miss
			// The missed copy goes on only if the controller sends it on
			// itself (SendFromSwitch: a PacketOut, a new walk from hop 0);
			// otherwise it dies here (Q4). It is not re-matched against
			// whatever the controller installed.
			n.Ctrl.PacketIn(n, sw, inPort, mp)
		}
	}
	// Deterministic per-action processing order: (kind, port) ascending.
	// Insertion sort keeps the tiny slice on the stack (a sort.Slice
	// closure would force it to the heap on every hop).
	for i := 1; i < len(acts); i++ {
		for j := i; j > 0; j-- {
			x, y := acts[j].act, acts[j-1].act
			if x.Kind < y.Kind || (x.Kind == y.Kind && x.Port < y.Port) {
				acts[j], acts[j-1] = acts[j-1], acts[j]
				continue
			}
			break
		}
	}
	for _, g := range acts {
		fp := pkt
		fp.Tags = g.tags
		switch g.act.Kind {
		case ActionDrop:
			n.Dropped++
		case ActionOutput:
			n.emit(sw, g.act.Port, fp, hops+1, a)
		}
	}
}

// link is one resolved switch port: the host or the switch wired there
// and, for a switch, the port the packet arrives on (-1 when the
// neighbour has no port back). Both nil: nothing registered is wired.
type link struct {
	host   *Host
	sw     *Switch
	inPort int64
}

// resolveLinks resolves every switch's wiring from neighbour names to
// nodes and every host's attachment, so that a hop is a slice index
// instead of four map lookups and an injection starts without any. A
// fork is born resolved; a hand-built network resolves on its first
// forward after a wiring change (Wire and the Add* mutators clear linked).
// It also adopts switches registered by a direct map write, whose Install,
// ClearTable and Wire could not otherwise reach the network's epoch.
func (n *Network) resolveLinks() {
	for _, sw := range n.Switches {
		sw.net = n
		top := -1
		for p := range sw.ports {
			if p > top {
				top = p
			}
		}
		sw.links = make([]link, top+1)
		for p, name := range sw.ports {
			if h, ok := n.Hosts[name]; ok {
				sw.links[p].host = h
			} else if ns, ok := n.Switches[name]; ok {
				sw.links[p] = link{sw: ns, inPort: int64(ns.PortTo(sw.ID))}
			}
		}
	}
	for _, h := range n.Hosts {
		n.attach(h)
	}
	n.linked = true
}

// attach resolves a host's attachment switch and the port it injects on,
// adopting the switch; it reports false, leaving the host unattached,
// when that switch is not registered.
func (n *Network) attach(h *Host) bool {
	h.sw = n.Switches[h.Switch]
	if h.sw == nil {
		return false
	}
	h.sw.net = n
	h.inPort = int32(h.sw.PortTo(h.ID))
	return true
}

// emit sends a packet out of a switch port to whatever is wired there; a
// switch takes it on in the run a anchors.
func (n *Network) emit(sw *Switch, port int, pkt Packet, hops int, a lap) {
	if !n.linked {
		n.resolveLinks()
	}
	if uint(port) >= uint(len(sw.links)) {
		n.Dropped++
		return
	}
	switch l := &sw.links[port]; {
	case l.host != nil:
		if bits.Len64(pkt.Tags) > len(l.host.received) {
			n.growCounters(pkt.Tags) // a host added, or a PacketOut tagged wider, since Inject looked
		}
		pp, ps := l.host.deliver(pkt, n.width)
		n.Delivered++
		if n.recording {
			n.last.deliveries = append(n.last.deliveries, delivery{l.host, pkt.Tags, pp, ps})
		}
	case l.sw != nil:
		n.forward(l.sw, l.inPort, pkt, hops, a)
	default:
		n.Dropped++
	}
}

// growCounters makes room for a delivery under tags: every host's totals
// become a share of one new slab, wide enough for the widest tag set seen
// (one column for a diagnostic replay, candidates + 1 for a shared run),
// and the per-port and per-source rows grow with them. It runs at a
// network's first injection, at the first delivery to a host added since,
// and when a packet carries a higher tag than any before; the rows a
// recorded traversal points into are replaced, so the epoch advances.
func (n *Network) growCounters(tags uint64) {
	n.width = max(n.width, bits.Len64(tags))
	n.epoch++
	slab := make([]int64, n.width*len(n.Hosts))
	for _, h := range n.Hosts {
		copy(slab, h.received)
		h.received, slab = slab[:n.width:n.width], slab[n.width:]
		for port, row := range h.byPort {
			h.byPort[port] = append(row, make([]int64, n.width-len(row))...)
		}
		for src, row := range h.bySrc {
			h.bySrc[src] = append(row, make([]int64, n.width-len(row))...)
		}
	}
}

// ResetCounters zeroes delivery statistics (flow tables are kept).
func (n *Network) ResetCounters() {
	n.epoch++ // the recorded counter rows are dropped below
	n.Delivered, n.Dropped, n.Missed, n.PacketIns, n.Hops, n.Walks, n.Laps = 0, 0, 0, 0, 0, 0, 0
	n.PacketInsByTag, n.HopLimitedByTag = [64]int64{}, [64]int64{}
	for _, h := range n.Hosts {
		clear(h.received)
		h.byPort, h.bySrc = nil, nil
	}
}

// HostIDs returns all host IDs sorted.
func (n *Network) HostIDs() []string {
	return append([]string(nil), n.hostIDs()...)
}

// hostIDs returns the sorted-ID cache, rebuilt when hosts were added or
// removed since the last call (callers must not retain or mutate it).
func (n *Network) hostIDs() []string {
	if len(n.hostIDCache) != len(n.Hosts) {
		out := make([]string, 0, len(n.Hosts))
		for id := range n.Hosts {
			out = append(out, id)
		}
		sort.Strings(out)
		n.hostIDCache = out
	}
	return n.hostIDCache
}

// Distribution returns the per-host delivered-packet counts under one tag,
// ordered by host ID — the sample the KS test consumes (§5.3).
func (n *Network) Distribution(tag int) []int64 {
	ids := n.hostIDs()
	out := make([]int64, len(ids))
	for i, id := range ids {
		out[i] = n.Hosts[id].ReceivedFor(tag)
	}
	return out
}
