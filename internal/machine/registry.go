package machine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Registry is a thread-safe catalog of machine targets, looked up by
// case-insensitive name. It stores each registered spec compiled once
// (see Compiled), not Machine values: every Lookup returns a fresh
// Machine sealed to that shared compiled form, so no caller can
// corrupt the catalog or another caller's target. A variant target
// (the SuperScalar2-from-POWER1 pattern) is derived by editing a Spec
// (SpecOf) and building it.
type Registry struct {
	mu      sync.RWMutex
	targets map[string]*Compiled // key: strings.ToLower(spec.Name)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{targets: map[string]*Compiled{}}
}

// Register validates the spec and adds it to the catalog. Registering
// a second spec under an already-taken name (case-insensitively) is an
// error: name collisions are configuration bugs, and silently
// replacing a target is exactly the aliasing hazard content
// fingerprints exist to prevent.
func (r *Registry) Register(s *Spec) error {
	m, err := s.Machine()
	if err != nil {
		return err
	}
	key := strings.ToLower(s.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.targets[key]; dup {
		return fmt.Errorf("machine registry: %q already registered", s.Name)
	}
	r.targets[key] = m.c
	return nil
}

// Lookup returns a fresh Machine for the target registered under name
// (case-insensitive), sealed to the compiled form built once at
// registration. An unknown name errors with the list of valid names.
func (r *Registry) Lookup(name string) (*Machine, error) {
	r.mu.RLock()
	c, ok := r.targets[strings.ToLower(name)]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("machine registry: unknown machine %q (registered: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return c.machine(), nil
}

// Names lists the registered machine names (as spelled in their
// specs), sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.targets))
	for _, c := range r.targets {
		out = append(out, c.Name())
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Default is the process-wide registry. The embedded builtin specs
// register here at init (builtins.go); applications add custom targets
// via Register.
var Default = NewRegistry()

// Register adds a spec to the default registry.
func Register(s *Spec) error { return Default.Register(s) }

// Lookup builds a Machine from the default registry.
func Lookup(name string) (*Machine, error) { return Default.Lookup(name) }

// Names lists the default registry's machine names.
func Names() []string { return Default.Names() }
