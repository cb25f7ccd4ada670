package metaprov

// exploreSequential is the reference forest search ExploreStream is held
// to: one loop pops the frontier from a single heap, expands every tree
// itself and emits candidates in cost order (§3.5: a candidate is emitted
// only when no cheaper partial tree remains). It shares the emitter and
// the expansion code with the stream, so the two must agree candidate for
// candidate and on every exact Stats count.
func (ex *Explorer) exploreSequential(goal Goal) []Candidate {
	em := ex.newEmitter()
	var h treeHeap
	h.push(em.stamp(ex.rootTree(goal)))
	var out []Candidate

	for h.Len() > 0 && em.searching(len(out)) {
		cur := h.pop()
		if cur.Cost > ex.Cutoff {
			break // heap is cost-ordered: everything else is too expensive
		}
		if cur.Complete() {
			if c, ok := ex.extract(cur); ok && em.admit(cur, &c) {
				out = append(out, c)
			}
			continue
		}
		ex.steps.Add(1)
		exp := ex.expandStep(cur)
		ex.pruned.Add(int64(exp.pruned))
		for _, next := range exp.kids {
			h.push(em.stamp(next))
		}
	}
	return out
}
