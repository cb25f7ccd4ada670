package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry maps scenario names to specs. It is safe for concurrent use;
// the zero value is not ready — use NewRegistry. Most callers use the
// package-level default registry, which holds the built-in case studies
// Q1–Q5 from package initialization on.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]Spec
	order []string // registration order, for stable listings
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec)}
}

// Register validates the spec and adds it under its name. Registering a
// duplicate name is an error — specs are identities, not overrides.
func (r *Registry) Register(s Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.specs[s.Name]; dup {
		return fmt.Errorf("scenario: %q is already registered", s.Name)
	}
	r.specs[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// MustRegister is Register for init-time registration; it panics on
// error.
func (r *Registry) MustRegister(s Spec) {
	if err := r.Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the spec registered under name. An unknown name is a
// descriptive error that lists every registered scenario, so a CLI typo
// surfaces the menu instead of a nil dereference.
func (r *Registry) Lookup(name string) (Spec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.specs[name]; ok {
		return s, nil
	}
	if len(r.order) == 0 {
		return Spec{}, fmt.Errorf("scenario: unknown scenario %q (none registered)", name)
	}
	names := append([]string(nil), r.order...)
	sort.Strings(names)
	return Spec{}, fmt.Errorf("scenario: unknown scenario %q (registered: %s)",
		name, strings.Join(names, ", "))
}

// Names returns the registered scenario names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Specs returns the registered specs in registration order.
func (r *Registry) Specs() []Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Spec, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.specs[name])
	}
	return out
}

// Instantiate looks a spec up by name and resolves it at the scale.
func (r *Registry) Instantiate(name string, sc Scale) (*Scenario, error) {
	spec, err := r.Lookup(name)
	if err != nil {
		return nil, err
	}
	return spec.Instantiate(sc)
}

// defaultRegistry backs the package-level registration surface.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the package-level functions
// operate on.
func Default() *Registry { return defaultRegistry }

// Register adds a spec to the default registry.
func Register(s Spec) error { return defaultRegistry.Register(s) }

// MustRegister adds a spec to the default registry, panicking on error —
// the idiom for init-time registration.
func MustRegister(s Spec) { defaultRegistry.MustRegister(s) }

// Lookup resolves a name against the default registry.
func Lookup(name string) (Spec, error) { return defaultRegistry.Lookup(name) }

// Names lists the default registry in registration order.
func Names() []string { return defaultRegistry.Names() }

// Instantiate resolves a named spec from the default registry at the
// scale.
func Instantiate(name string, sc Scale) (*Scenario, error) {
	return defaultRegistry.Instantiate(name, sc)
}
