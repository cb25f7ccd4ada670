package metarepair

import (
	"context"
	"strings"
	"testing"

	"repro/internal/backtest"
	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/sdn"
)

func TestOptionDefaults(t *testing.T) {
	o := defaultOptions()
	if o.maxCandidates != 64 {
		t.Errorf("maxCandidates = %d, want 64", o.maxCandidates)
	}
	if !o.coalesce {
		t.Error("coalescing must default on (§4.4)")
	}
	if o.batchSize != backtest.MaxSharedCandidates {
		t.Errorf("batchSize = %d, want %d", o.batchSize, backtest.MaxSharedCandidates)
	}
	if o.pipeline != PipelineStreaming || o.eval != EvalDelta {
		t.Errorf("pipeline = %v, eval = %v, want streaming and delta", o.pipeline, o.eval)
	}
	if o.maxPacketInFactor != 0 || o.parallelism != 0 {
		t.Error("packet-in factor and parallelism must default to zero (engine defaults)")
	}
	if o.sink != nil || o.filter != nil {
		t.Error("sink and filter must default nil")
	}
}

func TestOptionOverridesDoNotMutateSession(t *testing.T) {
	sess, err := NewSession(ndlog.MustParse("t",
		`r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Prt := 2.`),
		WithMaxCandidates(7), WithMaxPacketInFactor(2))
	if err != nil {
		t.Fatal(err)
	}
	if sess.opts.maxCandidates != 7 || sess.opts.maxPacketInFactor != 2 {
		t.Fatalf("session options not applied: %+v", sess.opts)
	}
	// A per-call override is resolved on a copy.
	o := sess.opts.with([]Option{WithMaxCandidates(3), WithPipelineMode(PipelineBarrier)})
	if o.maxCandidates != 3 || o.pipeline != PipelineBarrier || o.maxPacketInFactor != 2 {
		t.Fatalf("per-call merge broken: %+v", o)
	}
	if sess.opts.maxCandidates != 7 || sess.opts.pipeline != PipelineStreaming {
		t.Fatalf("per-call options leaked into the session: %+v", sess.opts)
	}
}

func TestBudgetApplyKeepsDefaultsForZeroFields(t *testing.T) {
	prog := ndlog.MustParse("t",
		`r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Prt := 2.`)
	ex := metaprov.NewExplorer(meta.NewModel(prog), nil)
	// The explorer embeds atomic counters, so record the tunables
	// individually instead of copying the struct.
	defDepth, defSteps, defCutoff := ex.MaxDepth, ex.MaxSteps, ex.Cutoff
	defHist, defStruct := ex.MaxHistTuples, ex.MaxPerStructure
	Budget{}.apply(ex)
	if ex.MaxDepth != defDepth || ex.MaxSteps != defSteps || ex.Cutoff != defCutoff ||
		ex.MaxHistTuples != defHist || ex.MaxPerStructure != defStruct {
		t.Fatal("zero budget must keep explorer defaults")
	}
	Budget{MaxDepth: 5, CostCutoff: 9.5}.apply(ex)
	if ex.MaxDepth != 5 || ex.Cutoff != 9.5 {
		t.Fatal("non-zero budget fields not applied")
	}
	if ex.MaxSteps != defSteps || ex.MaxPerStructure != defStruct {
		t.Fatal("unrelated fields overwritten")
	}
}

// TestOptionValidation: zero and negative worker or batch counts are
// configuration errors, rejected at every pipeline entry point rather
// than silently corrected to a default.
func TestOptionValidation(t *testing.T) {
	prog := ndlog.MustParse("t",
		`r1 FlowTable(@Swi,Sip,Dip,Spt,Dpt,Prt) :- PacketIn(@C,Swi,InPrt,Sip,Dip,Spt,Dpt), Swi == 1, Prt := 2.`)
	cases := []struct {
		name    string
		opt     Option
		wantErr string // "" = valid
	}{
		{"parallelism 1", WithParallelism(1), ""},
		{"parallelism 32", WithParallelism(32), ""},
		{"parallelism zero", WithParallelism(0), "WithParallelism(0)"},
		{"parallelism negative", WithParallelism(-4), "WithParallelism(-4)"},
		{"batch 1", WithBatchSize(1), ""},
		{"batch max", WithBatchSize(backtest.MaxSharedCandidates), ""},
		{"batch zero", WithBatchSize(0), "WithBatchSize(0)"},
		{"batch negative", WithBatchSize(-1), "WithBatchSize(-1)"},
		{"batch over tag space", WithBatchSize(64), "WithBatchSize(64)"},
		{"explore workers 2", WithExploreWorkers(2), ""},
		{"explore workers zero", WithExploreWorkers(0), "WithExploreWorkers(0)"},
		{"explore workers negative", WithExploreWorkers(-1), "WithExploreWorkers(-1)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateOptions(tc.opt)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("ValidateOptions: unexpected error %v", err)
				}
				if _, err := NewSession(prog, tc.opt); err != nil {
					t.Fatalf("NewSession rejected a valid option: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ValidateOptions = %v, want error mentioning %q", err, tc.wantErr)
			}
			// The same error surfaces from NewSession and from each
			// pipeline entry point taking per-call options.
			if _, serr := NewSession(prog, tc.opt); serr == nil || serr.Error() != err.Error() {
				t.Fatalf("NewSession error = %v, want %v", serr, err)
			}
			sess, serr := NewSession(prog)
			if serr != nil {
				t.Fatal(serr)
			}
			ctx := context.Background()
			bt := Backtest{BuildNet: func() *sdn.Network { return sdn.NewNetwork() }}
			if _, eerr := sess.Explore(ctx, Missing("FlowTable"), tc.opt); eerr == nil || eerr.Error() != err.Error() {
				t.Fatalf("Explore error = %v, want %v", eerr, err)
			}
			if _, eerr := sess.Evaluate(ctx, nil, bt, tc.opt); eerr == nil || eerr.Error() != err.Error() {
				t.Fatalf("Evaluate error = %v, want %v", eerr, err)
			}
			if _, eerr := sess.Stream(ctx, Missing("FlowTable"), bt, tc.opt); eerr == nil || eerr.Error() != err.Error() {
				t.Fatalf("Stream error = %v, want %v", eerr, err)
			}
			if _, eerr := sess.Repair(ctx, Missing("FlowTable"), bt, tc.opt); eerr == nil || eerr.Error() != err.Error() {
				t.Fatalf("Repair error = %v, want %v", eerr, err)
			}
		})
	}
}

// TestOptionValidationKeepsFirstError: the first invalid option wins and
// later valid options still apply.
func TestOptionValidationKeepsFirstError(t *testing.T) {
	o := defaultOptions().with([]Option{WithParallelism(0), WithBatchSize(-1), WithBatchSize(8)})
	if o.err == nil || !strings.Contains(o.err.Error(), "WithParallelism(0)") {
		t.Fatalf("first error not kept: %v", o.err)
	}
	if o.batchSize != 8 {
		t.Fatalf("later valid option ignored: batchSize = %d", o.batchSize)
	}
}

// TestParsePipelineMode: the flag/JSON vocabulary round-trips through
// String, empty means the default, and an unknown value's error names the
// whole menu (the CLI and the daemon both surface it verbatim).
func TestParsePipelineMode(t *testing.T) {
	for _, m := range []PipelineMode{PipelineStreaming, PipelineBarrier, PipelineFirstAccepted} {
		if got, err := ParsePipelineMode(m.String()); err != nil || got != m {
			t.Errorf("ParsePipelineMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if got, err := ParsePipelineMode(""); err != nil || got != PipelineStreaming {
		t.Errorf(`ParsePipelineMode("") = %v, %v, want the streaming default`, got, err)
	}
	_, err := ParsePipelineMode("eager")
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, want := range []string{"eager", "streaming", "barrier", "first-accepted"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
