package topo

import (
	"fmt"

	"repro/internal/sdn"
)

// Size scales a generated topology. Generators interpret Switches as a
// total switch budget (each shape rounds to its nearest legal
// configuration) and Hosts as the total host count; zero values pick the
// generator's default for that budget.
type Size struct {
	Switches int
	Hosts    int
}

// Generator produces a Fabric of one topology shape at a requested size.
// Implementations must be deterministic: scenario backtesting rebuilds
// the fabric once per shared-run batch and replays the same recorded
// workload into each copy, so two Generate calls with the same Size must
// yield identical networks.
type Generator interface {
	// Name identifies the shape in reports and event logs.
	Name() string
	// Generate builds the fabric. It must be safe to call concurrently.
	Generate(sz Size) *Fabric
}

// Campus generates the §5.2 Stanford-style campus of Build/Scaled: a
// 16-router backbone ring with chords, edge networks, and the Figure 9c
// host series. The zero value is ready to use.
type Campus struct {
	// Base overrides the derived Config's numbering defaults when set.
	BaseSwitchNum int64
	BaseHostIP    int64
}

// Name implements Generator.
func (Campus) Name() string { return "campus" }

// Generate implements Generator: Size.Switches selects the Figure 9c
// series entry (clamped to the 19-switch minimum), Size.Hosts overrides
// the series' host count.
func (c Campus) Generate(sz Size) *Fabric {
	cfg := Scaled(sz.Switches)
	if sz.Hosts > 0 {
		cfg.Hosts = sz.Hosts
	}
	cfg.BaseSwitchNum = c.BaseSwitchNum
	cfg.BaseHostIP = c.BaseHostIP
	return Build(cfg)
}

// Linear generates a chain of switches with hosts round-robined along it
// — the classic Mininet linear topology, the smallest shape that still
// exercises multi-hop proactive routing. Every switch is both an
// attachment point (CoreIDs) and a host-bearing switch (EdgeIDs).
type Linear struct {
	// HostsPerSwitch sets the default host density (default 4) when
	// Size.Hosts is zero.
	HostsPerSwitch int
	// BaseHostIP is the first host IP assigned (default 1000).
	BaseHostIP int64
}

// Name implements Generator.
func (Linear) Name() string { return "linear" }

// Generate implements Generator. Size.Switches is the chain length
// (minimum 2).
func (l Linear) Generate(sz Size) *Fabric {
	n := sz.Switches
	if n < 2 {
		n = 2
	}
	f := &Fabric{Net: sdn.NewNetwork()}
	num := int64(100)
	prev := ""
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("lin%d", i)
		addSwitch(f, id, &num)
		f.CoreIDs = append(f.CoreIDs, id)
		f.EdgeIDs = append(f.EdgeIDs, id)
		if prev != "" {
			f.Net.Link(prev, id)
		}
		prev = id
	}
	hosts := sz.Hosts
	if hosts <= 0 {
		per := l.HostsPerSwitch
		if per <= 0 {
			per = 4
		}
		hosts = n * per
	}
	baseIP := l.BaseHostIP
	if baseIP == 0 {
		baseIP = 1000
	}
	attachHosts(f, hosts, baseIP)
	return f
}

// addSwitch registers one switch under the shared numeric-ID counter.
func addSwitch(f *Fabric, id string, num *int64) {
	f.Net.AddSwitch(sdn.NewSwitch(id, *num))
	*num++
}
