package backtest

import (
	"slices"
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

// TestChangedRuleIDs: every change kind names the one rule it can touch
// (first-mention order, deduplicated), base-tuple edits name none, and an
// unknown kind makes the list inexact so BuildSharedProgram falls back to
// the full program sweep.
func TestChangedRuleIDs(t *testing.T) {
	ids, exact := changedRuleIDs([]meta.Change{
		meta.SetConst{RuleID: "r7"},
		meta.DropSel{RuleID: "r6"},
		meta.InsertTuple{Tuple: ndlog.NewTuple("FlowTable")},
		meta.SetHeadTable{RuleID: "r5"},
		meta.AddRule{Rule: &ndlog.Rule{ID: "r9"}},
		meta.DropRule{RuleID: "r7"},
	})
	if want := []string{"r7", "r6", "r5", "r9"}; !exact || !slices.Equal(ids, want) {
		t.Fatalf("ids = %v (exact %v), want %v", ids, exact, want)
	}
	if _, exact := changedRuleIDs([]meta.Change{unknownChange{}}); exact {
		t.Fatal("an unrecognized change kind must not be reported exact")
	}
}

// unknownChange is a change kind changedRuleIDs has never heard of.
type unknownChange struct{ meta.Change }
