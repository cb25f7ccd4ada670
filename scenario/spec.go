package scenario

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/metaprov"
	"repro/internal/ndlog"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/metarepair"
)

// Spec declares a scenario: which topology to generate, how to wire the
// scenario's reactive zone onto it, the buggy controller program, the
// recorded workload, the operator's symptom, and the oracle that judges
// repairs. A Spec is pure description — Instantiate resolves it at a
// Scale into a runnable Scenario.
//
// The resolver functions all receive the generated fabric, because in
// practice every piece of a scenario depends on the concrete topology:
// thresholds are computed from host IPs, workloads from host lists, and
// goals from both. The fabric the resolvers see is built once per
// Instantiate and then frozen (sdn.Network.Freeze): every network
// BuildNet later hands to a replay is a fork of it, so resolvers may read
// it — also from the closures they return, concurrently — but not change
// it.
type Spec struct {
	// Name registers the scenario; Query is the operator's diagnostic
	// question (Table 1 style).
	Name  string
	Query string

	// Topology generates the base fabric (nil: the §5.2 campus). Any
	// topo.Generator works — the built-in shapes are topo.Campus and
	// topo.Linear.
	Topology topo.Generator

	// Attach wires the scenario onto the freshly generated fabric: zone
	// switches and hosts, links into the fabric, and proactive routes
	// with overrides. It runs once per Instantiate, and is the last code
	// that may change the fabric. Optional — a spec whose program manages
	// the fabric itself may omit it (install proactive routes here if so).
	Attach func(f *topo.Fabric)

	// Program resolves the buggy controller program and its initial
	// controller state (policy tables) against the fabric. Required.
	Program func(f *topo.Fabric) (*ndlog.Program, []ndlog.Tuple, error)

	// Workload generates the recorded traffic the symptom hides in.
	// Required.
	Workload func(f *topo.Fabric, sc Scale) []trace.Entry

	// Goal resolves the missing-tuple symptom (Table 1). Required.
	Goal func(f *topo.Fabric) metaprov.Goal

	// Oracle resolves the effectiveness predicate evaluated against each
	// replayed network. Required.
	Oracle func(f *topo.Fabric) Effectiveness

	// IntuitiveFix is a substring of the repair a human operator would
	// choose; the built-in tests assert it is generated and accepted.
	// Optional.
	IntuitiveFix string

	// Options are the scenario's session defaults (search budget,
	// candidate cap). Optional.
	Options []metarepair.Option

	// MaxPacketInFactor enables the controller-load side-effect metric
	// (the Q4 rejection criterion). Optional.
	MaxPacketInFactor float64
}

// Validate reports every missing required field at once, so a spec
// author sees the full repair list on the first attempt.
func (s Spec) Validate() error {
	var missing []string
	if s.Name == "" {
		missing = append(missing, "Name")
	}
	if s.Program == nil {
		missing = append(missing, "Program")
	}
	if s.Workload == nil {
		missing = append(missing, "Workload")
	}
	if s.Goal == nil {
		missing = append(missing, "Goal")
	}
	if s.Oracle == nil {
		missing = append(missing, "Oracle")
	}
	if len(missing) > 0 {
		name := s.Name
		if name == "" {
			name = "(unnamed)"
		}
		return fmt.Errorf("scenario: spec %s is missing required fields: %s",
			name, strings.Join(missing, ", "))
	}
	return nil
}

// Instantiate resolves the spec at a scale into a runnable Scenario: it
// generates the reference fabric once, freezes it, resolves the program,
// workload, goal, and oracle against it, and sets BuildNet to fork it per
// replay. A resolver that tries to change the frozen fabric fails the
// instantiation. Zero scale fields fall back to DefaultScale.
func (s Spec) Instantiate(sc Scale) (out *Scenario, err error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if sc.Switches <= 0 {
		sc.Switches = DefaultScale().Switches
	}
	if sc.Flows <= 0 {
		sc.Flows = DefaultScale().Flows
	}
	gen := s.Topology
	if gen == nil {
		gen = topo.Campus{}
	}
	ref := gen.Generate(topo.Size{Switches: sc.Switches})
	if s.Attach != nil {
		s.Attach(ref)
	}
	ref.Net.Freeze()
	// The frozen fabric panics when mutated; a spec is outside input, so
	// that (like any panic a resolver raises on purpose) is reported as an
	// invalid spec. Runtime errors are bugs and keep their stack.
	defer func() {
		if r := recover(); r != nil {
			if _, bug := r.(runtime.Error); bug {
				panic(r)
			}
			out, err = nil, fmt.Errorf("scenario %s: resolving against the frozen fabric: %v", s.Name, r)
		}
	}()
	prog, state, err := s.Program(ref)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: resolving program: %w", s.Name, err)
	}
	if prog == nil {
		return nil, fmt.Errorf("scenario %s: Program resolved to nil", s.Name)
	}
	return &Scenario{
		Name:              s.Name,
		Query:             s.Query,
		Scale:             sc,
		Topology:          gen.Name(),
		Prog:              prog,
		State:             state,
		BuildNet:          ref.Net.Fork,
		Workload:          s.Workload(ref, sc),
		Goal:              s.Goal(ref),
		Effective:         s.Oracle(ref),
		IntuitiveFix:      s.IntuitiveFix,
		Options:           s.Options,
		MaxPacketInFactor: s.MaxPacketInFactor,
	}, nil
}

// MustInstantiate is Instantiate for specs known to be valid (the
// built-in case studies); it panics on error.
func (s Spec) MustInstantiate(sc Scale) *Scenario {
	out, err := s.Instantiate(sc)
	if err != nil {
		panic(err)
	}
	return out
}
