// Package topo builds evaluation topologies. The original shape is the
// §5.2 Stanford-campus-style network — 16 operational-zone/backbone core
// routers, edge networks hanging off the core, and 1–15 hosts per edge
// network — and the Generator interface makes the shape pluggable:
// Campus and Linear both produce a Fabric with the same naming
// and proactive-routing helpers, so scenario packages compose a bug and
// workload with either of them. The core is proactively configured
// (shortest-path forwarding entries for every host); scenario packages
// attach small reactive zones that the controller program manages.
package topo

import (
	"fmt"

	"repro/internal/sdn"
)

// Config sizes a campus topology. The defaults (via Small) reproduce the
// paper's smallest setting (19 routers, 259 hosts); Scaled produces the
// Figure 9c series up to 169 routers and 549 hosts.
type Config struct {
	CoreSwitches int // backbone + operational zone routers (paper: 16)
	EdgeSwitches int // edge networks, one switch each
	Hosts        int // total hosts, spread across edge networks
	// BaseSwitchNum is the first numeric switch ID assigned; scenario
	// switches typically occupy small numbers (1..3), so the campus
	// starts at 100 by default.
	BaseSwitchNum int64
	// BaseHostIP is the first host IP assigned (default 1000).
	BaseHostIP int64
}

// Small is the smallest §5.2 topology: 19 routers, 259 hosts.
func Small() Config {
	return Config{CoreSwitches: 16, EdgeSwitches: 3, Hosts: 259}
}

// Scaled returns the Figure 9c series entry with the given total switch
// count (19, 49, 79, 109, 139, 169); hosts grow from 259 to 549.
func Scaled(switches int) Config {
	if switches < 19 {
		switches = 19
	}
	edges := switches - 16
	hosts := 259 + (switches-19)*2 // 19 -> 259 ... 169 -> 559 (~549)
	if switches == 169 {
		hosts = 549
	}
	return Config{CoreSwitches: 16, EdgeSwitches: edges, Hosts: hosts}
}

// Build constructs the campus: a two-level core (ring plus chords, the
// usual campus backbone abstraction), one switch per edge network, and
// hosts round-robined across edges.
func Build(cfg Config) *Fabric {
	if cfg.CoreSwitches <= 0 {
		cfg.CoreSwitches = 16
	}
	if cfg.EdgeSwitches <= 0 {
		cfg.EdgeSwitches = 3
	}
	if cfg.BaseSwitchNum == 0 {
		cfg.BaseSwitchNum = 100
	}
	if cfg.BaseHostIP == 0 {
		cfg.BaseHostIP = 1000
	}
	f := &Fabric{Net: sdn.NewNetwork()}
	num := cfg.BaseSwitchNum
	for i := 0; i < cfg.CoreSwitches; i++ {
		id := fmt.Sprintf("core%d", i)
		f.Net.AddSwitch(sdn.NewSwitch(id, num))
		f.CoreIDs = append(f.CoreIDs, id)
		num++
	}
	// Ring plus cross-links every 4th router: redundant paths like a
	// campus backbone.
	for i := 0; i < cfg.CoreSwitches; i++ {
		f.Net.Link(f.CoreIDs[i], f.CoreIDs[(i+1)%cfg.CoreSwitches])
		if i%4 == 0 && cfg.CoreSwitches > 8 {
			f.Net.Link(f.CoreIDs[i], f.CoreIDs[(i+cfg.CoreSwitches/2)%cfg.CoreSwitches])
		}
	}
	for i := 0; i < cfg.EdgeSwitches; i++ {
		id := fmt.Sprintf("edge%d", i)
		f.Net.AddSwitch(sdn.NewSwitch(id, num))
		num++
		f.EdgeIDs = append(f.EdgeIDs, id)
		f.Net.Link(id, f.CoreIDs[i%cfg.CoreSwitches])
	}
	attachHosts(f, cfg.Hosts, cfg.BaseHostIP)
	return f
}

// attachHosts round-robins count hosts across the fabric's edge switches,
// assigning consecutive IPs from baseIP — the host-attachment convention
// every generator shares.
func attachHosts(f *Fabric, count int, baseIP int64) {
	if len(f.EdgeIDs) == 0 {
		return
	}
	ip := baseIP
	f.HostIDs = make([]string, 0, count)
	for i := 0; i < count; i++ {
		id := fmt.Sprintf("h%d", i)
		edge := f.EdgeIDs[i%len(f.EdgeIDs)]
		f.Net.AddHost(sdn.NewHost(id, ip, edge))
		f.HostIDs = append(f.HostIDs, id)
		ip++
	}
}
