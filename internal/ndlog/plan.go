package ndlog

// Compile-time join planning. At NewEngine time every (rule, trigger
// predicate) pair is compiled into a rulePlan: the remaining body atoms are
// ordered greedily by bound-variable coverage — the atom whose columns are
// most constrained by already-bound variables and constants joins first —
// and each step records the column set the engine should index the atom's
// table on. The matching hash indexes are created on the table stores
// before any tuple is inserted, so at runtime a join extension is a single
// bucket lookup instead of a scan-and-sort over the whole partner table.

// keyCol describes one component of a step's index key: either a constant
// from the rule text or a variable that is guaranteed bound by the time the
// step runs (it appears in the trigger atom or an earlier step).
type keyCol struct {
	col      int
	varName  string // "" when constant
	slot     int    // the variable's frame slot
	constVal Value
}

// joinStep is one planned body-atom extension.
type joinStep struct {
	body int      // position in rule.Body
	atom atom     // that atom, compiled against the slots bound before this step
	tbl  *table   // nil: transient event table, never stored, joins empty
	idx  *index   // nil: no bound columns, full sequential scan
	key  []keyCol // index-key recipe, aligned with idx.cols
}

// rulePlan is the compiled join program for one rule triggered at one body
// position: the trigger atom compiled against an empty frame, then the
// remaining atoms in join order, each compiled against the slots its
// predecessors bind. cr is the rule's slot form (guards, head, counters),
// shared by the rule's plans.
type rulePlan struct {
	rule  *Rule
	cr    *compiledRule
	pred  int
	trig  atom
	steps []joinStep
	sig   string // lazily-computed body signature for delta trigger grouping

	// headEvent: the head's table is never stored, so nothing retracts a
	// derivation of this plan and none is recorded. quietRows is how many
	// body rows a derivation keeps when nobody listens (see Engine.derive):
	// the stored ones, which is all but an event trigger — an event atom
	// off the trigger joins empty — and none under an event head.
	headEvent bool
	quietRows int
}

// planRule compiles the (rule, trigger) join order and registers the
// required indexes on the engine's table stores.
func (e *Engine) planRule(cr *compiledRule, pred int) *rulePlan {
	r := cr.rule
	bound := make(map[string]int) // variable -> slot, for the variables bound so far
	p := &rulePlan{rule: r, cr: cr, pred: pred, headEvent: e.isEvent(r.Head.Table)}
	if !p.headEvent {
		p.quietRows = len(r.Body)
		if e.isEvent(r.Body[pred].Table) {
			p.quietRows--
		}
	}
	p.trig = compileAtom(r.Body[pred], bound, cr.slotOf)

	remaining := make([]int, 0, len(r.Body)-1)
	for i := range r.Body {
		if i != pred {
			remaining = append(remaining, i)
		}
	}

	// Never-stored atoms first: a transient event table in a non-trigger
	// body position is always empty, so the whole join short-circuits
	// before any scan or lookup happens.
	kept := remaining[:0]
	for _, bi := range remaining {
		f := r.Body[bi]
		if e.tables[f.Table] == nil {
			p.steps = append(p.steps, joinStep{body: bi, atom: compileAtom(f, bound, cr.slotOf)})
			continue
		}
		kept = append(kept, bi)
	}
	remaining = kept
	for len(remaining) > 0 {
		bestPos, bestCols := -1, []keyCol(nil)
		for pos, bi := range remaining {
			cols := boundCols(bound, r.Body[bi])
			if bestPos == -1 || len(cols) > len(bestCols) {
				bestPos, bestCols = pos, cols
			}
		}
		bi := remaining[bestPos]
		remaining = append(remaining[:bestPos], remaining[bestPos+1:]...)

		f := r.Body[bi]
		step := joinStep{body: bi, tbl: e.tables[f.Table], key: bestCols}
		step.atom = compileAtom(f, bound, cr.slotOf)
		if len(bestCols) > 0 {
			cols := make([]int, len(bestCols))
			for i, kc := range bestCols {
				cols[i] = kc.col
			}
			step.idx = step.tbl.ensureIndex(cols)
		}
		p.steps = append(p.steps, step)
	}
	return p
}

// boundCols returns the atom's equality-constrained columns given the
// currently bound variable set: constant arguments and already-bound
// variables. Computed expressions stay filter-only (the atom evaluates
// them), matching the seed's semantics.
func boundCols(bound map[string]int, f *Functor) []keyCol {
	var cols []keyCol
	for i, a := range f.Args {
		switch a := a.(type) {
		case *Var:
			if s, ok := bound[a.Name]; ok && a.Name != "_" {
				cols = append(cols, keyCol{col: i, varName: a.Name, slot: s})
			}
		case *ConstExpr:
			// Wildcard constants match anything; they constrain nothing.
			if a.Val.Kind != KindWild {
				cols = append(cols, keyCol{col: i, constVal: a.Val})
			}
		}
	}
	return cols
}

// appendStepKey evaluates a step's index-key recipe on the frame, in the
// index's normalized hash encoding (appendHashKey, not the identity
// encoding: buckets must unite the int/bool values Equal unites).
func appendStepKey(dst []byte, key []keyCol, frame []Value) []byte {
	for _, kc := range key {
		if kc.varName != "" {
			dst = appendHashKey(dst, frame[kc.slot])
		} else {
			dst = appendHashKey(dst, kc.constVal)
		}
	}
	return dst
}
