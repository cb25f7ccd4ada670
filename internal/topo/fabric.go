package topo

import (
	"repro/internal/ndlog"
	"repro/internal/sdn"
)

// Fabric is a built topology: the network plus the naming and routing
// helpers scenario packages compose on. Every generated shape — campus,
// linear — produces one, so a reactive zone written against a Fabric
// runs unchanged on either of them: CoreIDs are the backbone switches
// zones attach to, EdgeIDs the host-bearing switches, and HostIDs every
// host in attachment order.
type Fabric struct {
	Net     *sdn.Network
	CoreIDs []string
	EdgeIDs []string
	HostIDs []string
}

// InstallProactiveRoutes computes shortest paths and installs one
// DstIP-match entry per (switch, host) pair — the proactive core
// configuration of §5.2, topology-independent because it BFSes the built
// graph. Overrides route chosen destination IPs toward a designated
// switch instead (used to steer scenario service IPs into the reactive
// zone). Switches named in reactive get no proactive entries at all, and
// hosts attached to them are reachable only via overrides — the reactive
// zone is the controller program's exclusive responsibility.
func (f *Fabric) InstallProactiveRoutes(overrides map[int64]string, reactive ...string) {
	skip := make(map[string]bool, len(reactive))
	for _, id := range reactive {
		skip[id] = true
	}
	ids, num, hop := f.nextHops()
	n := len(ids)
	// A destination is an IP routed toward a switch (by number, -1 when
	// the fabric has no such switch); one *int64 per destination serves as
	// the DstIP match of its entry on every switch.
	type dest struct {
		ip *int64
		sw int
	}
	dests := make([]dest, 0, len(f.Net.Hosts)+len(overrides))
	add := func(ip int64, swID string) {
		sw, known := num[swID]
		if !known {
			sw = -1
		}
		dests = append(dests, dest{&ip, sw})
	}
	for _, h := range f.Net.Hosts {
		if _, overridden := overrides[h.IP]; !overridden && !skip[h.Switch] {
			add(h.IP, h.Switch)
		}
	}
	for ip, swID := range overrides {
		add(ip, swID)
	}
	// Switch by switch, so that each table takes its entries as one batch.
	entries := make([]sdn.FlowEntry, 0, len(dests))
	for src, swID := range ids {
		if skip[swID] {
			continue
		}
		sw := f.Net.Switches[swID]
		entries = entries[:0]
		for _, d := range dests {
			var port int
			if d.sw == src {
				// Final hop: deliver to the locally attached host if present.
				h := f.Net.HostByIP(*d.ip)
				if h == nil || h.Switch != swID {
					continue
				}
				port = sw.PortTo(h.ID)
			} else if d.sw >= 0 && hop[src*n+d.sw] >= 0 {
				port = sw.PortTo(ids[hop[src*n+d.sw]])
			} else {
				continue
			}
			entries = append(entries, sdn.FlowEntry{
				Priority: 10,
				Match:    sdn.Match{DstIP: d.ip},
				Action:   sdn.Action{Kind: sdn.ActionOutput, Port: port},
				Tags:     ndlog.AllTags,
			})
		}
		sw.Install(entries...)
	}
}

// nextHops numbers the switches (ids[i] has number num[ids[i]] = i) and
// runs a BFS toward each of them over the switch-to-switch links:
// hop[src*n+dst] is the number of src's neighbour on a shortest path to
// dst, -1 when there is none (or src is dst).
func (f *Fabric) nextHops() (ids []string, num map[string]int, hop []int32) {
	n := len(f.Net.Switches)
	ids = make([]string, 0, n)
	num = make(map[string]int, n)
	for id := range f.Net.Switches {
		num[id] = len(ids)
		ids = append(ids, id)
	}
	adj := make([][]int32, n)
	for id, sw := range f.Net.Switches {
		for _, p := range sw.Ports() {
			if nb, isSwitch := num[sw.Neighbour(p)]; isSwitch {
				adj[num[id]] = append(adj[num[id]], int32(nb))
			}
		}
	}
	hop = make([]int32, n*n)
	for i := range hop {
		hop[i] = -1
	}
	// BFS from each destination, recording each node's parent toward dst;
	// a node is visited once it has one.
	queue := make([]int32, 0, n)
	for dst := 0; dst < n; dst++ {
		queue = append(queue[:0], int32(dst))
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, nb := range adj[cur] {
				if int(nb) == dst || hop[int(nb)*n+dst] >= 0 {
					continue
				}
				hop[int(nb)*n+dst] = cur
				queue = append(queue, nb)
			}
		}
	}
	return ids, num, hop
}

// SwitchCount returns the number of switches in the fabric.
func (f *Fabric) SwitchCount() int { return len(f.Net.Switches) }

// HostCount returns the number of hosts.
func (f *Fabric) HostCount() int { return len(f.Net.Hosts) }
