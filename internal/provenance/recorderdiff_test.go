package provenance_test

// The one-record-per-tuple Recorder against the five-map recorder it
// replaced: both listen to the same engine, and every query must answer the
// same, in the same order, at the same Lookups() count.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ndlog"
	"repro/internal/provenance"
	"repro/internal/sdn"
	"repro/internal/trace"
	"repro/scenario"
)

// mapRecorder is the former Recorder: one map per kind of fact, each keyed
// by the tuple's identity string.
type mapRecorder struct {
	ndlog.BaseListener
	derivs    map[string][]*provenance.Derivation
	derivsTab map[string][]*provenance.Derivation
	intervals map[string][]provenance.Interval
	inserts   map[string][]int64
	tuples    map[string][]ndlog.Tuple
	seen      map[string]struct{}
	byKey     map[string]ndlog.Tuple
	lookups   int64
}

func newMapRecorder() *mapRecorder {
	return &mapRecorder{
		derivs:    make(map[string][]*provenance.Derivation),
		derivsTab: make(map[string][]*provenance.Derivation),
		intervals: make(map[string][]provenance.Interval),
		inserts:   make(map[string][]int64),
		tuples:    make(map[string][]ndlog.Tuple),
		seen:      make(map[string]struct{}),
		byKey:     make(map[string]ndlog.Tuple),
	}
}

func (r *mapRecorder) OnInsert(t int64, tp ndlog.Tuple) {
	r.inserts[tp.Key()] = append(r.inserts[tp.Key()], t)
}

func (r *mapRecorder) OnDerive(t int64, rule *ndlog.Rule, head ndlog.Tuple, body []ndlog.Tuple, env ndlog.Env) {
	d := &provenance.Derivation{Time: t, Rule: rule, Head: head, Env: env}
	d.Body = append(d.Body, body...)
	r.derivs[head.Key()] = append(r.derivs[head.Key()], d)
	r.derivsTab[head.Table] = append(r.derivsTab[head.Table], d)
}

func (r *mapRecorder) OnAppear(t int64, tp ndlog.Tuple) {
	k := tp.Key()
	r.intervals[k] = append(r.intervals[k], provenance.Interval{From: t, To: -1})
	if _, ok := r.seen[k]; !ok {
		r.seen[k] = struct{}{}
		c := tp.Clone()
		r.tuples[tp.Table] = append(r.tuples[tp.Table], c)
		r.byKey[k] = c
	}
}

func (r *mapRecorder) OnDisappear(t int64, tp ndlog.Tuple) {
	iv := r.intervals[tp.Key()]
	for i := len(iv) - 1; i >= 0; i-- {
		if iv[i].To == -1 {
			iv[i].To = t
			break
		}
	}
}

func (r *mapRecorder) ExistedAt(tp ndlog.Tuple, at int64) (provenance.Interval, bool) {
	r.lookups++
	for _, iv := range r.intervals[tp.Key()] {
		if iv.From <= at && (iv.To == -1 || at <= iv.To) {
			return iv, true
		}
	}
	return provenance.Interval{}, false
}

// BaseInserts prefix-tests every inserted key of every table.
func (r *mapRecorder) BaseInserts(table string) []ndlog.Tuple {
	r.lookups++
	type rec struct {
		t  int64
		tp ndlog.Tuple
	}
	var all []rec
	for key, times := range r.inserts {
		if len(key) <= len(table) || key[:len(table)] != table || key[len(table)] != '|' {
			continue
		}
		tp, ok := r.byKey[key]
		if !ok {
			continue
		}
		for _, tm := range times {
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

func (r *mapRecorder) explain(tp ndlog.Tuple, inPath map[string]bool) *provenance.Vertex {
	key := tp.Key()
	root := &provenance.Vertex{Kind: provenance.KindExist, Tuple: tp, T2: -1}
	if iv := r.intervals[key]; len(iv) > 0 {
		root.T1, root.T2 = iv[0].From, iv[0].To
	}
	if inPath[key] {
		return root
	}
	inPath[key] = true
	defer delete(inPath, key)
	for _, t0 := range r.inserts[key] {
		root.Children = append(root.Children, &provenance.Vertex{Kind: provenance.KindInsert, T1: t0, Tuple: tp})
	}
	for _, d := range r.derivs[key] {
		dv := &provenance.Vertex{Kind: provenance.KindDerive, T1: d.Time, Tuple: tp, Rule: d.Rule.ID}
		for _, b := range d.Body {
			dv.Children = append(dv.Children, r.explain(b, inPath))
		}
		root.Children = append(root.Children, dv)
	}
	return root
}

func tuplesStr(ts []ndlog.Tuple) string {
	s := ""
	for _, t := range ts {
		s += fmt.Sprintf("%s#%x;", t.Key(), t.Tags)
	}
	return s
}

func derivsStr(ds []*provenance.Derivation) string {
	s := ""
	for _, d := range ds {
		s += fmt.Sprintf("%d %s %s <- %s %v\n", d.Time, d.Rule.ID, tuplesStr([]ndlog.Tuple{d.Head}), tuplesStr(d.Body), d.Env)
	}
	return s
}

// sameHistory asks both recorders everything the pipeline asks, about every
// table of the program, every tuple either has seen and one it has not.
func sameHistory(t *testing.T, label string, prog *ndlog.Program, now int64, got *provenance.Recorder, want *mapRecorder) {
	t.Helper()
	tables := map[string]bool{"Nowhere": true}
	for _, r := range prog.Rules {
		tables[r.Head.Table] = true
		for _, b := range r.Body {
			tables[b.Table] = true
		}
	}
	before := got.Lookups()
	var asked int64
	probes := []ndlog.Tuple{ndlog.NewTuple("Nowhere", ndlog.Int(1))}
	for tbl := range tables {
		asked += 3
		if g, w := tuplesStr(got.TuplesOf(tbl)), tuplesStr(want.tuples[tbl]); g != w {
			t.Fatalf("%s: TuplesOf(%s)\n got %s\nwant %s", label, tbl, g, w)
		}
		if g, w := derivsStr(got.DerivationsInto(tbl)), derivsStr(want.derivsTab[tbl]); g != w {
			t.Fatalf("%s: DerivationsInto(%s)\n got %s\nwant %s", label, tbl, g, w)
		}
		if g, w := tuplesStr(got.BaseInserts(tbl)), tuplesStr(want.BaseInserts(tbl)); g != w {
			t.Fatalf("%s: BaseInserts(%s)\n got %s\nwant %s", label, tbl, g, w)
		}
		probes = append(probes, want.tuples[tbl]...)
	}
	explained := 0
	for i, tp := range probes {
		k := tp.Key()
		asked += 4
		if g, w := derivsStr(got.DerivationsOf(tp)), derivsStr(want.derivs[k]); g != w {
			t.Fatalf("%s: DerivationsOf(%s)\n got %s\nwant %s", label, tp, g, w)
		}
		if g, w := fmt.Sprint(got.Intervals(tp)), fmt.Sprint(want.intervals[k]); g != w {
			t.Fatalf("%s: Intervals(%s) = %s, want %s", label, tp, g, w)
		}
		if g, w := got.EverExisted(tp), len(want.intervals[k]) > 0; g != w {
			t.Fatalf("%s: EverExisted(%s) = %v, want %v", label, tp, g, w)
		}
		if g, w := got.WasInserted(tp), len(want.inserts[k]) > 0; g != w {
			t.Fatalf("%s: WasInserted(%s) = %v, want %v", label, tp, g, w)
		}
		for _, at := range []int64{0, 1, now / 2, now, now + 1} {
			asked++
			giv, gok := got.ExistedAt(tp, at)
			wiv, wok := want.ExistedAt(tp, at)
			if giv != wiv || gok != wok {
				t.Fatalf("%s: ExistedAt(%s, %d) = %v %v, want %v %v", label, tp, at, giv, gok, wiv, wok)
			}
		}
		if i%17 == 0 { // Explain walks whole trees and counts no lookup
			explained++
			if g, w := got.Explain(tp).Render(), want.explain(tp, map[string]bool{}).Render(); g != w {
				t.Fatalf("%s: Explain(%s)\n got %s\nwant %s", label, tp, g, w)
			}
		}
	}
	if d := got.Lookups() - before; d != asked {
		t.Fatalf("%s: %d queries counted %d lookups", label, asked, d)
	}
	if len(probes) < 10 || explained == 0 {
		t.Fatalf("%s: only %d tuples to ask about", label, len(probes))
	}
}

func TestRecorderMatchesMapRecorderOnScenarios(t *testing.T) {
	for _, spec := range scenario.Default().Specs() {
		s := spec.MustInstantiate(scenario.Scale{Switches: 19, Flows: 200})
		eng := ndlog.MustNewEngine(s.Prog)
		got, want := provenance.NewRecorder(), newMapRecorder()
		eng.Listen(got)
		eng.Listen(want)
		net := s.BuildNet()
		ctl := sdn.NewNDlogController(eng)
		net.Ctrl = ctl
		ctl.InsertState(net, s.State...)
		if _, err := trace.ReplaySource(net, trace.SliceSource(s.Workload), 1); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		sameHistory(t, s.Name, s.Prog, eng.Now(), got, want)
	}
}

// Deletes, re-inserts and primary-key replacements: tuples with several
// intervals, several insert times, and tuples inserted as well as derived.
func TestRecorderMatchesMapRecorderUnderChurn(t *testing.T) {
	prog := ndlog.MustParse("churn", `
materialize(A, 1, 2, keys(0)).
materialize(B, 1, 2, keys(0,1)).
materialize(C, 1, 2, keys(0)).
b B(@X,Y) :- A(@X,Y).
c C(@X,Z) :- B(@X,Y), E(@X,Z).
a B(@X,Y) :- E(@X,Y).
`)
	for seed := int64(0); seed < 20; seed++ {
		rnd := rand.New(rand.NewSource(seed))
		eng := ndlog.MustNewEngine(prog)
		got, want := provenance.NewRecorder(), newMapRecorder()
		eng.Listen(got)
		eng.Listen(want)
		for i := 0; i < 300; i++ {
			tbl := []string{"A", "A", "B", "E"}[rnd.Intn(4)]
			tp := ndlog.NewTuple(tbl, ndlog.Int(int64(rnd.Intn(4))), ndlog.Int(int64(rnd.Intn(3))))
			if tbl != "E" && rnd.Intn(3) == 0 {
				eng.Delete(tp)
			} else {
				eng.Insert(tp)
			}
		}
		sameHistory(t, fmt.Sprintf("seed %d", seed), prog, eng.Now(), got, want)
		several := 0
		for _, tp := range got.TuplesOf("B") {
			if len(got.Intervals(tp)) > 1 {
				several++
			}
		}
		if several == 0 {
			t.Fatalf("seed %d: no B tuple has a second interval", seed)
		}
	}
}
