package provenance

import (
	"sort"
	"sync/atomic"

	"repro/internal/ndlog"
)

// LogEntrySize is the size of one on-disk log record in bytes, matching the
// 120-byte entries (packet header plus timestamp) reported in §5.4.
const LogEntrySize = 120

// Derivation is one recorded rule firing.
type Derivation struct {
	Time int64
	Rule *ndlog.Rule
	Head ndlog.Tuple
	Body []ndlog.Tuple
	Env  ndlog.Env
}

// Interval is a tuple's validity interval; To is -1 while the tuple is
// still present.
type Interval struct {
	From, To int64
}

// record is everything the recorder knows about one tuple, beside its
// canonical copy in the table's tuple list: its validity intervals, the
// times it was inserted as a base tuple and the derivations with it as
// head. The first interval lives in the record itself: most tuples appear
// once.
type record struct {
	intervals []Interval
	first     [1]Interval
	inserts   []int64
	derivs    []*Derivation
}

// Recorder is an ndlog.Listener that maintains the provenance graph's
// underlying log: derivations indexed by head, validity intervals, base
// insertions, and message sends. It doubles as the "historical information"
// store that repair generation and backtesting query (§4.3).
//
// Every tuple the engine hands a listener arrives with its identity key
// already interned (the engine computes it once per insertion/derivation),
// so the Key() calls below are cache reads — recording no longer
// re-stringifies tuples on the hot path — and one map from that key to the
// tuple's record is the only per-tuple index: a new tuple costs one hash
// and one record.
type Recorder struct {
	ndlog.BaseListener
	recs      map[string]*record       // tuple key -> everything about the tuple
	derivsTab map[string][]*Derivation // head table -> derivations
	tuples    map[string][]ndlog.Tuple // table -> every distinct tuple seen
	sends     []SendRecord
	// BytesLogged approximates on-disk storage: LogEntrySize per insert.
	BytesLogged int64
	// lookups counts index queries, for the turnaround-time breakdowns.
	// It is atomic: the streaming explorer's workers query history
	// concurrently. Read it via Lookups().
	lookups atomic.Int64
}

// Lookups returns how many index queries the recorder has answered.
func (r *Recorder) Lookups() int64 { return r.lookups.Load() }

// SendRecord is one cross-node message transmission.
type SendRecord struct {
	Time     int64
	From, To ndlog.Value
	Tuple    ndlog.Tuple
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		recs:      make(map[string]*record),
		derivsTab: make(map[string][]*Derivation),
		tuples:    make(map[string][]ndlog.Tuple),
	}
}

// rec returns the tuple's record, creating it on first sight.
func (r *Recorder) rec(key string) *record {
	rc := r.recs[key]
	if rc == nil {
		rc = &record{}
		rc.intervals = rc.first[:0]
		r.recs[key] = rc
	}
	return rc
}

// OnInsert implements ndlog.Listener.
func (r *Recorder) OnInsert(t int64, tp ndlog.Tuple) {
	rc := r.rec(tp.Key())
	rc.inserts = append(rc.inserts, t)
	r.BytesLogged += LogEntrySize
}

// OnDelete implements ndlog.Listener.
func (r *Recorder) OnDelete(t int64, tp ndlog.Tuple) {
	r.BytesLogged += LogEntrySize
}

// OnDerive implements ndlog.Listener. Tuple argument slices and the
// environment are stored by reference: the engine allocates them fresh
// per firing and never mutates them afterwards (only the Tags word of a
// stored row changes), so recording stays cheap — the property behind the
// small §5.4 overhead.
func (r *Recorder) OnDerive(t int64, rule *ndlog.Rule, head ndlog.Tuple, body []ndlog.Tuple, env ndlog.Env) {
	d := &Derivation{Time: t, Rule: rule, Head: head, Env: env}
	d.Body = append(d.Body, body...)
	rc := r.rec(head.Key())
	rc.derivs = append(rc.derivs, d)
	r.derivsTab[head.Table] = append(r.derivsTab[head.Table], d)
}

// OnAppear implements ndlog.Listener. Like OnDerive it keeps the tuple as
// shown, arguments and interned key: an engine with a listener owns the
// Args of every tuple it reports (see ndlog.Engine.BorrowsArgs), and
// BaseInserts finds the record through the key.
func (r *Recorder) OnAppear(t int64, tp ndlog.Tuple) {
	rc := r.rec(tp.Key())
	if len(rc.intervals) == 0 {
		r.tuples[tp.Table] = append(r.tuples[tp.Table], tp)
	}
	rc.intervals = append(rc.intervals, Interval{From: t, To: -1})
}

// OnDisappear implements ndlog.Listener.
func (r *Recorder) OnDisappear(t int64, tp ndlog.Tuple) {
	iv := r.get(tp.Key()).intervals
	for i := len(iv) - 1; i >= 0; i-- {
		if iv[i].To == -1 {
			iv[i].To = t
			break
		}
	}
}

// OnSend implements ndlog.Listener.
func (r *Recorder) OnSend(t int64, from, to ndlog.Value, tp ndlog.Tuple) {
	r.sends = append(r.sends, SendRecord{Time: t, From: from, To: to, Tuple: tp.Clone()})
}

// get returns a copy of the record under a tuple key, for reading (its
// slices are the record's own); a tuple never seen reads as the empty one.
func (r *Recorder) get(key string) record {
	if rc := r.recs[key]; rc != nil {
		return *rc
	}
	return record{}
}

// lookup is get counted as one index query.
func (r *Recorder) lookup(tp ndlog.Tuple) record {
	r.lookups.Add(1)
	return r.get(tp.Key())
}

// DerivationsOf returns the recorded derivations of a concrete tuple.
func (r *Recorder) DerivationsOf(tp ndlog.Tuple) []*Derivation { return r.lookup(tp).derivs }

// DerivationsInto returns all recorded derivations whose head is in table.
func (r *Recorder) DerivationsInto(table string) []*Derivation {
	r.lookups.Add(1)
	return r.derivsTab[table]
}

// TuplesOf returns every distinct tuple that ever appeared in a table, in
// first-appearance order.
func (r *Recorder) TuplesOf(table string) []ndlog.Tuple {
	r.lookups.Add(1)
	return r.tuples[table]
}

// ExistedAt reports whether the tuple was present at the given time, and
// the surrounding interval if so.
func (r *Recorder) ExistedAt(tp ndlog.Tuple, at int64) (Interval, bool) {
	for _, iv := range r.lookup(tp).intervals {
		if iv.From <= at && (iv.To == -1 || at <= iv.To) {
			return iv, true
		}
	}
	return Interval{}, false
}

// EverExisted reports whether the tuple appeared at any time.
func (r *Recorder) EverExisted(tp ndlog.Tuple) bool { return len(r.lookup(tp).intervals) > 0 }

// Intervals returns the validity intervals of a tuple.
func (r *Recorder) Intervals(tp ndlog.Tuple) []Interval { return r.lookup(tp).intervals }

// WasInserted reports whether the tuple was a base insertion.
func (r *Recorder) WasInserted(tp ndlog.Tuple) bool { return len(r.lookup(tp).inserts) > 0 }

// Sends returns all recorded cross-node transmissions.
func (r *Recorder) Sends() []SendRecord { return r.sends }

// BaseInserts returns all recorded base insertions of a table, ordered by
// insertion time; used by backtesting to reconstruct the input workload.
// It walks the table's own tuple list: one record lookup per distinct
// tuple of that table, whatever the other tables hold.
func (r *Recorder) BaseInserts(table string) []ndlog.Tuple {
	r.lookups.Add(1)
	type rec struct {
		t  int64
		tp ndlog.Tuple
	}
	var all []rec
	for _, tp := range r.tuples[table] {
		for _, tm := range r.get(tp.Key()).inserts {
			all = append(all, rec{t: tm, tp: tp})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t < all[j].t })
	out := make([]ndlog.Tuple, len(all))
	for i, a := range all {
		out[i] = a.tp
	}
	return out
}

// Explain returns the positive provenance tree of an observed tuple (§2.2):
// EXIST at the root, then DERIVE/INSERT vertices, then the body tuples'
// provenance recursively. A tuple both inserted and derived shows all
// supports. Memoization guards against recursive programs.
func (r *Recorder) Explain(tp ndlog.Tuple) *Vertex {
	return r.explain(tp, make(map[string]bool))
}

func (r *Recorder) explain(tp ndlog.Tuple, inPath map[string]bool) *Vertex {
	key := tp.Key()
	root := &Vertex{Kind: KindExist, Tuple: tp, T2: -1}
	rc := r.get(key)
	if iv := rc.intervals; len(iv) > 0 {
		root.T1, root.T2 = iv[0].From, iv[0].To
	}
	if inPath[key] {
		return root // cycle guard: cite existence without re-expanding
	}
	inPath[key] = true
	defer delete(inPath, key)

	for _, t0 := range rc.inserts {
		root.Children = append(root.Children, &Vertex{Kind: KindInsert, T1: t0, Tuple: tp})
	}
	for _, d := range rc.derivs {
		dv := &Vertex{Kind: KindDerive, T1: d.Time, Tuple: tp, Rule: d.Rule.ID}
		for _, b := range d.Body {
			dv.Children = append(dv.Children, r.explain(b, inPath))
		}
		root.Children = append(root.Children, dv)
	}
	return root
}

// ExplainMissing returns the negative provenance tree for a tuple that
// should exist but does not (§2.2, [54]): NEXIST at the root and one
// NDERIVE child per program rule whose head table matches, whose children
// cite the missing or failing preconditions. filter entries may be nil to
// match any value. The program supplies the candidate rules.
func (r *Recorder) ExplainMissing(prog *ndlog.Program, table string, filter []*ndlog.Value) *Vertex {
	want := ndlog.Tuple{Table: table}
	for _, f := range filter {
		if f != nil {
			want.Args = append(want.Args, *f)
		} else {
			want.Args = append(want.Args, ndlog.Wild())
		}
	}
	root := &Vertex{Kind: KindNExist, Tuple: want, T2: -1}
	for _, rule := range prog.Rules {
		if rule.Head.Table != table {
			continue
		}
		nd := &Vertex{Kind: KindNDerive, Tuple: want, Rule: rule.ID}
		// Cite each body predicate: if no tuple of that table was ever
		// seen, the precondition itself is missing (NEXIST); otherwise the
		// rule failed on its guards, which meta provenance will analyze.
		for _, b := range rule.Body {
			seen := r.tuples[b.Table]
			if len(seen) == 0 {
				nd.Children = append(nd.Children, &Vertex{
					Kind:  KindNExist,
					Tuple: ndlog.Tuple{Table: b.Table},
					T2:    -1,
				})
			} else {
				nd.Children = append(nd.Children, &Vertex{
					Kind:  KindExist,
					Tuple: seen[0],
					T2:    -1,
				})
			}
		}
		root.Children = append(root.Children, nd)
	}
	return root
}
