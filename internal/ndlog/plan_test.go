package ndlog

import "testing"

// threeWayProgram joins three state tables off one event trigger; every
// extension is equality-constrained, so the planner should index all three.
const threeWayProgram = `
materialize(Link, 1, 2, keys(0,1)).
materialize(Cost, 1, 2, keys(0,1)).
materialize(TwoHop, 1, 3, keys(0,1,2)).
j TwoHop(@X,Z,C) :- Probe(@X), Link(@X,Y), Link(@Y,Z), Cost(@Z,C).
`

func TestPlannerOrdersByBoundCoverage(t *testing.T) {
	e := MustNewEngine(MustParse("plan", threeWayProgram))
	plans := e.triggers["Probe"]
	if len(plans) != 1 {
		t.Fatalf("Probe plans = %d, want 1", len(plans))
	}
	p := plans[0]
	if len(p.steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(p.steps))
	}
	// With X bound by the trigger, Link(@X,Y) must join before Link(@Y,Z),
	// and Cost(@Z,C) last; each step carries exactly one indexed column.
	wantBody := []int{1, 2, 3}
	for i, st := range p.steps {
		if st.body != wantBody[i] {
			t.Fatalf("step %d joins body atom %d, want %d", i, st.body, wantBody[i])
		}
		if st.idx == nil || len(st.key) != 1 || st.key[0].col != 0 {
			t.Fatalf("step %d: index on col 0 expected, got key %+v", i, st.key)
		}
	}
}

func TestPlannerIndexesConstantColumns(t *testing.T) {
	e := MustNewEngine(MustParse("const", `
materialize(Pol, 1, 2, keys(0,1)).
materialize(Out, 1, 1, keys(0)).
c Out(@X) :- Ev(@X), Pol(@X,7).
`))
	p := e.triggers["Ev"][0]
	if len(p.steps) != 1 {
		t.Fatalf("steps = %d", len(p.steps))
	}
	st := p.steps[0]
	if st.idx == nil || len(st.key) != 2 {
		t.Fatalf("want both columns indexed (var + constant), got %+v", st.key)
	}
	if st.key[1].varName != "" || st.key[1].constVal.Int != 7 {
		t.Fatalf("constant column not planned: %+v", st.key[1])
	}
}

func TestIndexedJoinMatchesScanAndCountsStats(t *testing.T) {
	prog := MustParse("plan", threeWayProgram)
	run := func(s JoinStrategy) (*Engine, []Tuple) {
		e := MustNewEngine(prog)
		e.SetJoinStrategy(s)
		var out []Tuple
		for i := 0; i < 20; i++ {
			e.Insert(NewTuple("Link", Int(int64(i)), Int(int64(i+1))))
			e.Insert(NewTuple("Cost", Int(int64(i)), Int(int64(10*i))))
		}
		for i := 0; i < 20; i++ {
			out = append(out, e.Insert(NewTuple("Probe", Int(int64(i))))...)
		}
		return e, out
	}
	ei, indexed := run(JoinIndexed)
	es, scanned := run(JoinScan)
	if len(indexed) != len(scanned) {
		t.Fatalf("appearances: indexed %d, scan %d", len(indexed), len(scanned))
	}
	for i := range indexed {
		if !indexed[i].Equal(scanned[i]) {
			t.Fatalf("appearance %d: indexed %v, scan %v", i, indexed[i], scanned[i])
		}
	}
	if ei.Stats.IndexLookups == 0 {
		t.Fatal("indexed run answered no join from an index")
	}
	if es.Stats.IndexLookups != 0 || es.Stats.Scans == 0 {
		t.Fatalf("scan oracle used indexes: %+v", es.Stats)
	}
	if ei.Stats.IndexRows >= es.Stats.ScanRows {
		t.Fatalf("index pruned nothing: %d index rows vs %d scanned rows",
			ei.Stats.IndexRows, es.Stats.ScanRows)
	}
}

func TestIndexMatchesWildcardRows(t *testing.T) {
	// A stored wildcard in an indexed column must still join against a
	// constant body argument (constants match via the wildcard-aware
	// Matches), so wildcard rows may not hide inside a hash bucket.
	e := MustNewEngine(MustParse("wild", `
materialize(Flow, 1, 2, keys(0,1)).
materialize(Hit, 1, 1, keys(0)).
h Hit(@S) :- Pkt(@S), Flow(@S,7).
`))
	e.Insert(NewTuple("Flow", Int(5), Wild())) // matches the constant 7
	e.Insert(NewTuple("Flow", Int(5), Int(7))) // matches exactly
	e.Insert(NewTuple("Flow", Int(5), Int(8))) // must not match
	p := e.triggers["Pkt"][0]
	if p.steps[0].idx == nil || len(p.steps[0].key) != 2 {
		t.Fatalf("Flow step not indexed on both columns: %+v", p.steps[0].key)
	}
	e.Insert(NewTuple("Pkt", Int(5)))
	if e.Stats.Derivations != 2 {
		t.Fatalf("derivations = %d, want 2 (exact + wildcard row)", e.Stats.Derivations)
	}
}

func TestIndexIntBoolCrossKind(t *testing.T) {
	// Value.Equal treats Int(1) and Bool(true) as equal; the hash index
	// must not separate them into different buckets.
	e := MustNewEngine(MustParse("crosskind", `
materialize(S, 1, 2, keys(0,1)).
materialize(Out, 1, 2, keys(0,1)).
x Out(@A,B) :- Ev(@A), S(@A,B).
`))
	e.Insert(NewTuple("S", Bool(true), Int(3)))
	out := e.Insert(NewTuple("Ev", Int(1)))
	found := false
	for _, tp := range out {
		if tp.Table == "Out" {
			found = true
		}
	}
	if !found {
		t.Fatal("Int(1) trigger failed to join stored Bool(true) row")
	}
}

func TestAggregateGroupKeySeparatorCollision(t *testing.T) {
	// Seed bug: group keys were joined with "|", so groups ("a|b") and
	// ("a","b")-style value pairs could merge. With length-prefixed
	// encoding the two groups below must stay distinct.
	prog := MustParse("agg", `
materialize(PredFunc, 1, 3, keys(0,1,2)).
materialize(Cnt, 1, 3, keys(0,1)).
p Cnt(@Rul,Sub,a_count<Arg>) :- PredFunc(@Rul,Sub,Arg).
`)
	e := MustNewEngine(prog)
	// Group 1: ("x|", "y") — group 2: ("x", "|y"). Under the old "|"-joined
	// encoding both groups flatten to the same string.
	e.Insert(NewTuple("PredFunc", Str("x|"), Str("y"), Int(1)))
	e.Insert(NewTuple("PredFunc", Str("x"), Str("|y"), Int(2)))
	rows := e.Rows("Cnt")
	if len(rows) != 2 {
		t.Fatalf("rows = %v, want 2 distinct groups", rows)
	}
	for _, r := range rows {
		if r.Args[2].Int != 1 {
			t.Fatalf("group %v has count %d, want 1", r, r.Args[2].Int)
		}
	}
}

func TestStorageCompaction(t *testing.T) {
	e := MustNewEngine(MustParse("kv", `
materialize(KV, 1, 2, keys(0)).
`))
	for i := 0; i < 500; i++ {
		e.Insert(NewTuple("KV", Int(int64(i)), Int(int64(i))))
	}
	for i := 0; i < 400; i++ {
		e.Delete(NewTuple("KV", Int(int64(i)), Int(int64(i))))
	}
	tbl := e.tables["KV"]
	if tbl.live != 100 {
		t.Fatalf("live = %d, want 100", tbl.live)
	}
	if len(tbl.rows) > tbl.live+tbl.dead || len(tbl.rows) >= 500 {
		t.Fatalf("rows slice not compacted: len=%d live=%d dead=%d", len(tbl.rows), tbl.live, tbl.dead)
	}
	rows := e.Rows("KV")
	if len(rows) != 100 {
		t.Fatalf("Rows = %d, want 100", len(rows))
	}
	for i, r := range rows {
		if r.Args[0].Int != int64(400+i) {
			t.Fatalf("compaction broke insertion order at %d: %v", i, r)
		}
	}
}

func TestTupleKeyInterned(t *testing.T) {
	tp := NewTuple("T", Int(1), Str("a"))
	k1 := tp.Key()
	k2 := tp.Key()
	if k1 != k2 {
		t.Fatalf("keys differ: %q vs %q", k1, k2)
	}
	c := tp.Clone()
	if c.Key() != k1 {
		t.Fatal("clone lost the interned key")
	}
	pk := tp.PrimaryKey([]int{0})
	if pk == "" || pk == k1 {
		t.Fatalf("primary key = %q", pk)
	}
	if tp.PrimaryKey([]int{0}) != pk {
		t.Fatal("primary key not interned")
	}
	if tp.PrimaryKey([]int{1}) == pk {
		t.Fatal("interned primary key ignored a changed column set")
	}
}

func TestCloneDropsInternedKeys(t *testing.T) {
	// Repair candidates clone a recorded tuple and rewrite an argument
	// (metaprov's change-base-tuple patch); the clone must not keep
	// reporting the donor's identity.
	tp := NewTuple("Cost", Int(3), Int(5))
	old := tp.Key()
	oldPK := tp.PrimaryKey([]int{0, 1})
	repl := tp.Clone()
	repl.Args[1] = Int(7)
	if repl.Key() == old {
		t.Fatalf("mutated clone kept donor key %q", old)
	}
	if repl.PrimaryKey([]int{0, 1}) == oldPK {
		t.Fatalf("mutated clone kept donor primary key %q", oldPK)
	}
	want := NewTuple("Cost", Int(3), Int(7))
	if repl.Key() != want.Key() {
		t.Fatalf("clone key %q, want %q", repl.Key(), want.Key())
	}
}

func TestStringKeyLengthPrefixCollision(t *testing.T) {
	// Tuple identity must distinguish ("a|b") from ("a","b") and similar
	// separator-bearing strings.
	a := NewTuple("T", Str("a|b"))
	b := NewTuple("T", Str("a"), Str("b"))
	if a.Key() == b.Key() {
		t.Fatalf("key collision: %q", a.Key())
	}
	c := NewTuple("T", Str("a"), Str(""))
	d := NewTuple("T", Str(""), Str("a"))
	if c.Key() == d.Key() {
		t.Fatalf("key collision: %q", c.Key())
	}
}

func BenchmarkTupleKeyInterned(b *testing.B) {
	tp := NewTuple("FlowTable", Int(3), Int(1001), Int(201), Int(4242), Int(80), Int(2))
	tp.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tp.Key() == "" {
			b.Fatal("empty key")
		}
	}
}
