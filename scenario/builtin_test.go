package scenario

import (
	"testing"

	"repro/internal/topo"
)

// TestBackgroundServicesSampling pins the satellite fix: the sample is
// exact at small host counts (all hosts when count >= hosts) and evenly
// spread with no duplicates otherwise.
func TestBackgroundServicesSampling(t *testing.T) {
	build := func(hosts int) *topo.Fabric {
		return topo.Linear{}.Generate(topo.Size{Switches: 2, Hosts: hosts})
	}
	for _, tc := range []struct {
		hosts, count, want int
	}{
		{hosts: 5, count: 12, want: 5},   // fewer hosts than services: take all
		{hosts: 12, count: 12, want: 12}, // exact fit
		{hosts: 13, count: 12, want: 12}, // the old step==0 path clustered here
		{hosts: 259, count: 12, want: 12},
	} {
		svcs := backgroundServices(build(tc.hosts), tc.count)
		if len(svcs) != tc.want {
			t.Fatalf("hosts=%d count=%d: got %d services, want %d",
				tc.hosts, tc.count, len(svcs), tc.want)
		}
		seen := map[int64]bool{}
		for _, s := range svcs {
			if seen[s.DstIP] {
				t.Fatalf("hosts=%d count=%d: duplicate service host %d", tc.hosts, tc.count, s.DstIP)
			}
			seen[s.DstIP] = true
		}
	}
	// Spread: with 2x hosts the sample must span the whole range, not
	// cluster at its start.
	svcs := backgroundServices(build(24), 12)
	last := svcs[len(svcs)-1].DstIP
	first := svcs[0].DstIP
	if last-first < 20 {
		t.Fatalf("sample clustered: spans [%d, %d] of 24 hosts", first, last)
	}
	if backgroundServices(build(4), 0) != nil {
		t.Fatal("count<=0 must yield no services")
	}
}
