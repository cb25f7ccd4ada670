package topo

import (
	"testing"

	"repro/internal/sdn"
)

// probeReachability installs proactive routes and checks the first host
// can reach a sample of the others — the property every generated shape
// must provide before a scenario zone is attached.
func probeReachability(t *testing.T, f *Fabric) {
	t.Helper()
	f.InstallProactiveRoutes(nil)
	src := f.HostIDs[0]
	n := len(f.HostIDs)
	if n > 10 {
		n = 10
	}
	for _, dstID := range f.HostIDs[1:n] {
		dst := f.Net.Hosts[dstID]
		before := f.Net.Delivered
		f.Net.Inject(src, sdn.Packet{
			SrcIP: f.Net.Hosts[src].IP, DstIP: dst.IP, DstPort: sdn.PortHTTP,
		})
		if f.Net.Delivered != before+1 {
			t.Fatalf("host %s unreachable from %s", dstID, src)
		}
	}
	if f.Net.Missed != 0 {
		t.Fatalf("missed = %d, want 0 on a proactive fabric", f.Net.Missed)
	}
}

func TestCampusGenerator(t *testing.T) {
	f := Campus{}.Generate(Size{Switches: 19})
	if f.SwitchCount() != 19 || f.HostCount() != 259 {
		t.Fatalf("campus: %d switches, %d hosts", f.SwitchCount(), f.HostCount())
	}
	probeReachability(t, f)
}

func TestLinearGenerator(t *testing.T) {
	f := Linear{}.Generate(Size{Switches: 8})
	if f.SwitchCount() != 8 || f.HostCount() != 32 {
		t.Fatalf("linear: %d switches, %d hosts", f.SwitchCount(), f.HostCount())
	}
	probeReachability(t, f)

	dense := Linear{HostsPerSwitch: 10}.Generate(Size{Switches: 3})
	if dense.HostCount() != 30 {
		t.Fatalf("linear dense hosts = %d, want 30", dense.HostCount())
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range []Generator{Campus{}, Linear{}} {
		a := g.Generate(Size{Switches: 20})
		b := g.Generate(Size{Switches: 20})
		if a.SwitchCount() != b.SwitchCount() || a.HostCount() != b.HostCount() {
			t.Fatalf("%s: non-deterministic sizes", g.Name())
		}
		for i, id := range a.HostIDs {
			if b.HostIDs[i] != id || a.Net.Hosts[id].IP != b.Net.Hosts[id].IP {
				t.Fatalf("%s: host %d differs between builds", g.Name(), i)
			}
		}
	}
}

// TestZonePortable attaches the same reactive zone to every shape and
// checks the override steering works identically — the property the
// scenario layer's topology pluggability rests on.
func TestZonePortable(t *testing.T) {
	for _, g := range []Generator{Campus{}, Linear{}} {
		f := g.Generate(Size{Switches: 20})
		zone := sdn.NewSwitch("zone", 1)
		f.Net.AddSwitch(zone)
		f.Net.Link("zone", f.CoreIDs[0])
		f.InstallProactiveRoutes(map[int64]string{5555: "zone"})
		f.Net.Inject(f.HostIDs[0], sdn.Packet{
			SrcIP: f.Net.Hosts[f.HostIDs[0]].IP, DstIP: 5555, DstPort: sdn.PortHTTP,
		})
		if f.Net.Missed != 1 {
			t.Fatalf("%s: missed = %d, want 1 (steered to the zone switch)", g.Name(), f.Net.Missed)
		}
	}
}
