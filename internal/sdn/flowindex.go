package sdn

// Tuple-space-search flow-table index: the one match path of every switch.
//
// Proactive fabrics install one entry per (switch, host) pair and a shared
// 63-candidate run adds an entry set proportional to the number of
// diverging candidates; a linear scan over either runs once per hop per
// packet. The index partitions entries by wildcard signature (which of the
// six match fields are concrete); within a signature every entry is an
// exact match over its concrete fields, so one hash probe per signature
// yields the packet's candidate entries. Lookup then k-way merges the
// per-signature buckets by (priority desc, install seq asc) — the order of
// a flat table sorted by priority with ties in installation order — and
// bucket membership is equivalent to Match.Matches (concrete fields equal
// the packet's, wildcards match anything). The internal/sdn tests hold the
// index to a linear scan over a flat table of the entries they installed.
//
// A forked switch (Network.Fork) layers its own index over the frozen
// template's: base is read-only and shared by every fork, install probes
// it for the covered duplicate and continues its sequence numbers, and
// lookup adds its buckets as extra merge cursors — so base + overlay
// enumerate exactly like one flat table that had received the base's
// installs first.

// idxEntry is one indexed flow entry plus its global installation sequence
// (the linear scan's tie-break among equal priorities).
type idxEntry struct {
	e   FlowEntry
	seq int
}

// maskGroup holds all entries sharing one wildcard signature, bucketed by
// their concrete field values; each bucket is kept in (priority desc,
// seq asc) order.
type maskGroup struct {
	sig     uint8
	buckets map[[6]int64][]idxEntry
}

// flowIndex is the per-switch tuple-space index. There are at most 64
// signatures and in practice a handful, so groups are found by scanning.
type flowIndex struct {
	groups []*maskGroup
	seq    int
	base   *flowIndex // frozen lower layer of a forked switch; never written
}

// group returns the signature's group, or nil.
func (fi *flowIndex) group(sig uint8) *maskGroup {
	for _, g := range fi.groups {
		if g.sig == sig {
			return g
		}
	}
	return nil
}

// maskSig computes an entry's wildcard signature (bit i set = field i
// concrete) and its bucket key. Field order: InPort, SrcIP, DstIP,
// SrcPort, DstPort, Proto.
func maskSig(m Match) (sig uint8, key [6]int64) {
	fields := [6]*int64{m.InPort, m.SrcIP, m.DstIP, m.SrcPort, m.DstPort, m.Proto}
	for i, f := range fields {
		if f != nil {
			sig |= 1 << uint(i)
			key[i] = *f
		}
	}
	return sig, key
}

// packetKey projects the packet's header onto a signature's concrete
// fields; unset fields stay zero, matching maskSig's encoding.
func packetKey(sig uint8, inPort int64, p Packet) (key [6]int64) {
	vals := [6]int64{inPort, p.SrcIP, p.DstIP, p.SrcPort, p.DstPort, p.Proto}
	for i := 0; i < 6; i++ {
		if sig&(1<<uint(i)) != 0 {
			key[i] = vals[i]
		}
	}
	return key
}

// covers reports whether an entry of the bucket is identical to e and
// already carries its whole tag set.
func covers(bucket []idxEntry, e FlowEntry) bool {
	for i := range bucket {
		t := &bucket[i].e
		if t.Priority == e.Priority && t.Action == e.Action && e.Tags&^t.Tags == 0 {
			return true
		}
	}
	return false
}

// install adds an entry, reporting false when an identical earlier entry
// already covers its tag set (the idempotent re-install). The
// covered-duplicate check only needs this entry's own bucket in each
// layer: Match.Equal implies equal signature and key. buckets sizes the
// bucket map of a signature this install is the first of.
func (fi *flowIndex) install(e FlowEntry, buckets int) bool {
	sig, key := maskSig(e.Match)
	if fi.base != nil {
		if bg := fi.base.group(sig); bg != nil && covers(bg.buckets[key], e) {
			return false
		}
	}
	g := fi.group(sig)
	if g == nil {
		g = &maskGroup{sig: sig, buckets: make(map[[6]int64][]idxEntry, buckets)}
		fi.groups = append(fi.groups, g)
	}
	bucket := g.buckets[key]
	if covers(bucket, e) {
		return false
	}
	fi.seq++
	pos := len(bucket)
	for i := range bucket {
		if bucket[i].e.Priority < e.Priority {
			pos = i
			break
		}
	}
	bucket = append(bucket, idxEntry{})
	copy(bucket[pos+1:], bucket[pos:])
	bucket[pos] = idxEntry{e: e, seq: fi.seq}
	g.buckets[key] = bucket
	return true
}

// idxCursor walks one bucket during the lookup merge.
type idxCursor struct {
	bucket []idxEntry
	i      int
}

// probe appends a cursor for every bucket of the layer the packet falls
// into.
func (fi *flowIndex) probe(inPort int64, p Packet, cursors []idxCursor) []idxCursor {
	for _, g := range fi.groups {
		if b := g.buckets[packetKey(g.sig, inPort, p)]; len(b) > 0 {
			cursors = append(cursors, idxCursor{bucket: b})
		}
	}
	return cursors
}

// matchActions partitions the packet's tag set by the highest-priority
// matching entry per tag, appending per-action groups to acts (callers
// pass a stack buffer). The remainder mask (tags with no matching entry)
// misses to the controller. One bucket probe per signature and layer, then
// a k-way merge in (priority desc, seq asc) order; bucket membership
// already guarantees the match, so no Matches call is needed.
func (s *Switch) matchActions(inPort int64, p Packet, acts []actionGroup) ([]actionGroup, uint64) {
	remaining := p.Tags
	cursors := s.idx.probe(inPort, p, s.mcur[:0])
	if s.idx.base != nil {
		cursors = s.idx.base.probe(inPort, p, cursors)
	}
	for remaining != 0 {
		best := -1
		for ci := range cursors {
			c := &cursors[ci]
			if c.i >= len(c.bucket) {
				continue
			}
			if best == -1 {
				best = ci
				continue
			}
			be := &cursors[best].bucket[cursors[best].i]
			ce := &c.bucket[c.i]
			if ce.e.Priority > be.e.Priority ||
				(ce.e.Priority == be.e.Priority && ce.seq < be.seq) {
				best = ci
			}
		}
		if best == -1 {
			break
		}
		ent := &cursors[best].bucket[cursors[best].i]
		cursors[best].i++
		hit := remaining & ent.e.Tags
		if hit == 0 {
			continue
		}
		acts = addAction(acts, ent.e.Action, hit)
		remaining &^= hit
	}
	s.mcur = cursors
	return acts, remaining
}
