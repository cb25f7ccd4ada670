package sdn

import (
	"fmt"
	"sort"
)

// Build once, fork per replay.
//
// Every diagnostic run and every shared backtest replays a trace through
// the same topology and the same proactive flow tables — on the paper's
// campus one entry per (switch, host) pair. Freeze turns a built network
// into a read-only template and Fork stamps out a replayable copy in
// O(switches + hosts): fresh switches, hosts and counters whose tables
// start as an empty overlay over the template's (flowindex.go) and whose
// ports are already resolved to the copy's own nodes. Forks share only
// memory nothing writes, so any number may be taken and run concurrently.

// What a network's seal forbids: a fork shares its template's wiring, so
// its topology is fixed; a frozen network is read-only altogether.
const (
	sealWiring uint8 = 1 + iota
	sealAll
)

// mutate guards every mutator: it panics when the seal forbids the
// operation, and notes a wiring change so that the next forward
// re-resolves the links and walks the tables.
func (n *Network) mutate(op string, level uint8) {
	if n.seal >= level {
		kind := "frozen"
		if n.seal == sealWiring {
			kind = "forked"
		}
		panic(fmt.Sprintf("sdn: %s on a %s network", op, kind))
	}
	if level == sealWiring {
		n.linked = false
		n.epoch++
	}
}

// Freeze makes the network an immutable template for Fork. Afterwards
// Wire, AddSwitch, AddHost, AddHostAt, Link, Install, ClearTable, Inject
// and SendFromSwitch panic on it; reads stay valid and are safe from any
// number of goroutines. Freezing twice is a no-op; a fork cannot be
// frozen.
func (n *Network) Freeze() {
	if n.seal == sealAll {
		return
	}
	n.mutate("Freeze", sealWiring)
	ids := make([]string, 0, len(n.Switches))
	for id := range n.Switches {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	n.swOrder = make([]*Switch, len(ids))
	for i, id := range ids {
		s := n.Switches[id]
		s.ord = i
		n.swOrder[i] = s
	}
	n.hostOrder = make([]*Host, len(n.Hosts))
	for i, id := range n.hostIDs() {
		h := n.Hosts[id]
		h.ord = int32(i)
		n.hostOrder[i] = h
	}
	n.resolveLinks() // also adopts, and so seals, switches registered by a direct map write
	n.seal = sealAll
}

// Fork returns a replayable copy of a frozen network: the same topology
// and flow tables, zeroed counters, no controller and no capture hook.
// The copy's tables start as the template's and take installs of their
// own (an entry the template already covers stays a no-op, ClearTable
// drops the template's entries for this copy only); its wiring is the
// template's for good, so Wire, AddSwitch, AddHost, AddHostAt and Link
// panic on it. Fork is safe to call concurrently, and forks never write
// memory they share.
func (n *Network) Fork() *Network {
	if n.seal != sealAll {
		panic("sdn: Fork of a network that is not frozen")
	}
	f := &Network{
		Switches:    make(map[string]*Switch, len(n.swOrder)),
		Hosts:       make(map[string]*Host, len(n.hostOrder)),
		MaxHops:     n.MaxHops,
		hostIDCache: n.hostIDCache,
		byNum:       make(map[int64]*Switch, len(n.swOrder)),
		seal:        sealWiring,
		linked:      true,
	}
	sws := make([]Switch, len(n.swOrder))
	hosts := make([]Host, len(n.hostOrder))
	for i, t := range n.hostOrder {
		h := &hosts[i]
		h.ID, h.IP, h.Switch = t.ID, t.IP, t.Switch
		if t.sw != nil {
			h.sw, h.inPort = &sws[t.sw.ord], t.inPort
		}
		f.Hosts[h.ID] = h
	}
	nlinks := 0
	for _, t := range n.swOrder {
		nlinks += len(t.links)
	}
	links := make([]link, nlinks)
	for i, t := range n.swOrder {
		s := &sws[i]
		*s = Switch{
			ID: t.ID, Num: t.Num, ports: t.ports, portOf: t.portOf,
			idx: flowIndex{seq: t.idx.seq, base: &t.idx},
			net: f,
		}
		s.links, links = links[:len(t.links):len(t.links)], links[len(t.links):]
		for p, l := range t.links {
			switch {
			case l.host != nil:
				s.links[p].host = &hosts[l.host.ord]
			case l.sw != nil:
				s.links[p] = link{sw: &sws[l.sw.ord], inPort: l.inPort}
			}
		}
		f.Switches[s.ID] = s
		f.byNum[s.Num] = s
	}
	return f
}
