package backtest

import (
	"testing"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
)

// Failure injection: the backtester must degrade gracefully on broken
// candidates, empty workloads, and malformed jobs.

func TestUnapplicableCandidateSequential(t *testing.T) {
	job, _ := q1Job(t)
	job.Candidates = []metaprov.Candidate{
		// References a rule that does not exist: Apply fails.
		{Changes: []meta.Change{meta.DropRule{RuleID: "no-such-rule"}}},
	}
	res := runSequential(t, job)
	if len(res) != 1 {
		t.Fatalf("results = %d", len(res))
	}
	if res[0].Accepted || res[0].Effective {
		t.Fatalf("broken candidate must not be accepted: %+v", res[0])
	}
}

func TestUnapplicableCandidateShared(t *testing.T) {
	job, _ := q1Job(t)
	good := metaprov.Candidate{Changes: []meta.Change{
		meta.SetConst{RuleID: "r7", Path: "sel/0/R", Old: ndlog.Int(2), New: ndlog.Int(3)},
	}}
	bad := metaprov.Candidate{Changes: []meta.Change{
		meta.DropRule{RuleID: "no-such-rule"},
	}}
	job.Candidates = []metaprov.Candidate{bad, good}
	res, err := runShared(job)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Effective {
		t.Fatal("broken candidate judged effective")
	}
	if !res[1].Effective {
		t.Fatal("good candidate must still be judged on its own tag")
	}
}

func TestEmptyWorkload(t *testing.T) {
	job, _ := q1Job(t)
	job.Workload = nil
	job.Candidates = []metaprov.Candidate{{Changes: []meta.Change{
		meta.SetConst{RuleID: "r7", Path: "sel/0/R", Old: ndlog.Int(2), New: ndlog.Int(3)},
	}}}
	res := runSequential(t, job)
	// With no traffic the symptom cannot be shown fixed: ineffective.
	if res[0].Effective {
		t.Fatal("no traffic, yet effective")
	}
	shr, err := runShared(job)
	if err != nil {
		t.Fatal(err)
	}
	if shr[0].Effective {
		t.Fatal("no traffic, yet effective (shared)")
	}
}

func TestNoCandidates(t *testing.T) {
	job, _ := q1Job(t)
	job.Candidates = nil
	if got := runSequential(t, job); len(got) != 0 {
		t.Fatalf("sequential results = %d", len(got))
	}
	shr, err := runShared(job)
	if err != nil || len(shr) != 0 {
		t.Fatalf("shared results = %d err = %v", len(shr), err)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Candidate: metaprov.Candidate{}, KS: 0.5}
	if r.String() == "" {
		t.Fatal("empty result rendering")
	}
	r.Accepted = true
	if r.String() == "" {
		t.Fatal("empty accepted rendering")
	}
}

// TestSharedProgramFromUnknownChangeKind: BuildSharedProgram reads which
// rules a candidate touched off the patch's edit log, so a Change kind this
// package has never heard of — it can reach a rule only through Patch.Edit —
// still gets its variant and clears its bit on the original.
func TestSharedProgramFromUnknownChangeKind(t *testing.T) {
	job, _ := q1Job(t)
	cands := []metaprov.Candidate{
		{Changes: []meta.Change{meta.DropRule{RuleID: "r6"}}},
		{Changes: []meta.Change{flipFirstSel{RuleID: "r7"}}},
	}
	shared, _, _, err := BuildSharedProgram(job.Prog, cands, true)
	if err != nil {
		t.Fatal(err)
	}
	want := job.Prog.Rule("r7").Clone()
	want.Sels[0].Op = ndlog.OpNe
	variant := shared.Rule("r7~c2")
	if variant == nil || variant.TagMask != 1<<2 || ruleBodyKey(variant) != ruleBodyKey(want) {
		t.Fatalf("variant of r7 for candidate 2 = %v", variant)
	}
	for id, mask := range map[string]uint64{"r5": 0b111, "r6": 0b101, "r7": 0b011} {
		if got := shared.Rule(id).TagMask; got != mask {
			t.Errorf("%s runs under tags %03b, want %03b", id, got, mask)
		}
	}
	if len(shared.Rules) != len(job.Prog.Rules)+1 {
		t.Fatalf("shared program has %d rules, want the %d originals and one variant", len(shared.Rules), len(job.Prog.Rules))
	}
	if got := job.Prog.Rule("r7").Sels[0].Op; got != ndlog.OpEq {
		t.Fatalf("base program was edited: r7's operator is now %s", got)
	}
}

// flipFirstSel negates a rule's first selection: a change kind defined
// outside package meta.
type flipFirstSel struct {
	meta.Change
	RuleID string
}

func (c flipFirstSel) ApplyTo(p *meta.Patch) error {
	r, err := p.Edit(c.RuleID)
	if err != nil {
		return err
	}
	r.Sels[0].Op = ndlog.OpNe
	return nil
}
