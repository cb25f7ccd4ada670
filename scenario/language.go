package scenario

import (
	"context"
	"fmt"

	"repro/internal/meta"
	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/pyretic"
	"repro/internal/trema"
	"repro/metarepair"
)

// LangProgram is a controller program as seen through one of the three
// language front-ends (§5.8): its rendered source and the language's
// repair expressibility rules.
type LangProgram interface {
	Source() string
	LineCount() int
	AllowChange(meta.Change) bool
	Describe(meta.Change) string
	Name() string
}

// Language is one of the supported controller language front-ends.
type Language struct {
	Name      string
	Translate func(*ndlog.Program) (LangProgram, error)
	Supports  func(scenario string) bool
}

// ndlogProgram is the trivial adapter for the native dialect.
type ndlogProgram struct{ prog *ndlog.Program }

func (p ndlogProgram) Source() string                { return p.prog.String() }
func (p ndlogProgram) LineCount() int                { return p.prog.LineCount() }
func (p ndlogProgram) AllowChange(meta.Change) bool  { return true }
func (p ndlogProgram) Describe(c meta.Change) string { return c.String() }
func (p ndlogProgram) Name() string                  { return "RapidNet" }

// NDlogLang is the native declarative front-end (the paper's RapidNet).
func NDlogLang() Language {
	return Language{
		Name: "RapidNet",
		Translate: func(p *ndlog.Program) (LangProgram, error) {
			return ndlogProgram{prog: p}, nil
		},
		Supports: func(string) bool { return true },
	}
}

// TremaLang is the imperative front-end.
func TremaLang() Language {
	return Language{
		Name: "Trema",
		Translate: func(p *ndlog.Program) (LangProgram, error) {
			return trema.Translate(p)
		},
		Supports: func(string) bool { return true },
	}
}

// PyreticLang is the policy-DSL front-end. Q4 is not reproducible in
// Pyretic: its runtime forwards the buffered packet itself, so the
// forgotten-packets bug cannot be written (§5.8).
func PyreticLang() Language {
	return Language{
		Name: "Pyretic",
		Translate: func(p *ndlog.Program) (LangProgram, error) {
			return pyretic.Translate(p)
		},
		Supports: func(scenario string) bool { return scenario != "Q4" },
	}
}

// Languages returns all three front-ends in the paper's order.
func Languages() []Language {
	return []Language{NDlogLang(), TremaLang(), PyreticLang()}
}

// LanguageByName resolves a front-end by name; the error lists the
// supported languages.
func LanguageByName(name string) (Language, error) {
	var names []string
	for _, l := range Languages() {
		if l.Name == name {
			return l, nil
		}
		names = append(names, l.Name)
	}
	return Language{}, fmt.Errorf("scenario: unknown language %q (supported: %v)", name, names)
}

// LangOutcome extends Outcome with language-level bookkeeping.
type LangOutcome struct {
	*Outcome
	Language   string
	Filtered   int // candidates removed by expressibility rules
	Supported  bool
	SourceLOC  int
	Renderings []string // language-level candidate descriptions
}

// RunWithLanguage executes the pipeline with the scenario's controller
// expressed in the given language: candidates inexpressible in the
// language are filtered before backtesting via the session's candidate
// filter (the Table 3 experiment).
func (s *Scenario) RunWithLanguage(ctx context.Context, lang Language, extra ...metarepair.Option) (*LangOutcome, error) {
	if !lang.Supports(s.Name) {
		return &LangOutcome{
			Outcome:  &Outcome{Scenario: s},
			Language: lang.Name,
		}, nil
	}
	lp, err := lang.Translate(s.Prog)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: translate: %w", s.Name, lang.Name, err)
	}
	sess, replayTime, err := s.Diagnose(extra...)
	if err != nil {
		return nil, err
	}
	rep, err := sess.Repair(ctx, s.Symptom(), s.Backtest(),
		metarepair.WithCandidateFilter(func(c metaprov.Candidate) bool {
			for _, ch := range c.Changes {
				if !lp.AllowChange(ch) {
					return false
				}
			}
			return true
		}))
	if err != nil {
		return nil, err
	}

	out := &LangOutcome{
		Outcome:   s.outcome(sess, rep, replayTime),
		Language:  lang.Name,
		Filtered:  rep.Filtered,
		Supported: true,
		SourceLOC: lp.LineCount(),
	}
	for _, r := range rep.Results {
		desc := ""
		for i, ch := range r.Candidate.Changes {
			if i > 0 {
				desc += "; "
			}
			desc += lp.Describe(ch)
		}
		out.Renderings = append(out.Renderings, desc)
	}
	return out, nil
}
