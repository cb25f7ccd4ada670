package scenario

import (
	"repro/internal/sdn"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The five built-in case studies of §5.3 — Q1 (copy-and-paste error,
// [31]), Q2 (forwarding error, [57]), Q3 (uncoordinated policy update,
// [13]), Q4 (forgotten packets, [7]) and Q5 (incorrect MAC learning, [4])
// — register in the default registry in paper order, so importing this
// package is all a binary needs to resolve them by name. Each spec embeds
// a buggy NDlog controller program in a reactive zone attached to the
// Stanford-style campus topology of §5.2, generates a workload in which
// the symptom traffic is a small fraction of the total, and exposes the
// diagnostic query as a missing-tuple goal plus an effectiveness
// predicate. Q1Spec…Q5Spec stay exported so tests can build fresh
// registries from them.
func init() {
	for _, spec := range []Spec{Q1Spec(), Q2Spec(), Q3Spec(), Q4Spec(), Q5Spec()} {
		MustRegister(spec)
	}
}

// campusSources returns trace sources for every fabric host.
func campusSources(f *topo.Fabric) []trace.HostSpec {
	out := make([]trace.HostSpec, 0, len(f.HostIDs))
	for _, id := range f.HostIDs {
		out = append(out, trace.HostSpec{ID: id, IP: f.Net.Hosts[id].IP})
	}
	return out
}

// backgroundServices spreads background traffic across an evenly spaced
// sample of fabric hosts, so the per-host distribution has enough mass
// that symptom-sized changes stay under the KS significance threshold
// while over-general repairs do not. The sample is exact: min(count,
// hosts) distinct hosts, spread across the whole ID range rather than
// clustered at its start.
func backgroundServices(f *topo.Fabric, count int) []trace.Service {
	n := len(f.HostIDs)
	if count > n {
		count = n
	}
	if count <= 0 {
		return nil
	}
	out := make([]trace.Service, 0, count)
	for i := 0; i < count; i++ {
		h := f.Net.Hosts[f.HostIDs[i*n/count]]
		out = append(out, trace.Service{DstIP: h.IP, Port: 9000, Proto: sdn.ProtoTCP, Weight: 1})
	}
	return out
}

// hostSpecAt returns the trace source for the fabric host at index i.
func hostSpecAt(f *topo.Fabric, i int) trace.HostSpec {
	id := f.HostIDs[i]
	return trace.HostSpec{ID: id, IP: f.Net.Hosts[id].IP}
}
