package baselines

import (
	"fmt"
	"strings"
	"sync"

	"github.com/stubby-mr/stubby/internal/mrsim"
	"github.com/stubby-mr/stubby/internal/optimizer"
)

// Spec describes one registered planner: a canonical name, a one-line
// description for listings, and a constructor binding the planner to a
// cluster and seed.
type Spec struct {
	// Name is the canonical (lowercase) registry key.
	Name string
	// Description is a one-line summary for -list-optimizers output.
	Description string
	// New constructs the planner for a cluster. Seed drives cost-based
	// planners deterministically; rule-based planners ignore it.
	New func(c *mrsim.Cluster, seed int64) Planner
}

// Registry maps planner names to constructors. It replaces the
// string→planner switches that used to be duplicated across the CLI, the
// benchmark harness, and the experiment drivers, and gives user code one
// place to add planners. A Registry is safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	specs map[string]Spec
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{specs: make(map[string]Spec)}
}

// Register adds a spec under its (case-insensitive) name. Registering an
// existing name replaces it, so callers can shadow a built-in planner.
func (r *Registry) Register(s Spec) error {
	if s.Name == "" || s.New == nil {
		return fmt.Errorf("baselines: spec needs a name and a constructor")
	}
	key := strings.ToLower(s.Name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.specs[key]; !exists {
		r.order = append(r.order, key)
	}
	s.Name = key
	r.specs[key] = s
	return nil
}

// Lookup returns the spec registered under name (case-insensitive).
func (r *Registry) Lookup(name string) (Spec, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.specs[strings.ToLower(name)]
	return s, ok
}

// New constructs the named planner for the cluster, or an error naming the
// registered alternatives.
func (r *Registry) New(name string, c *mrsim.Cluster, seed int64) (Planner, error) {
	s, ok := r.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("baselines: unknown planner %q (have %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return s.New(c, seed), nil
}

// Names lists the registered planner names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.order...)
}

// Specs lists the registered specs in registration order.
func (r *Registry) Specs() []Spec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Spec, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.specs[name])
	}
	return out
}

// Clone returns an independent copy, so a session can extend the default
// registry without mutating it for everyone else.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := &Registry{
		specs: make(map[string]Spec, len(r.specs)),
		order: append([]string(nil), r.order...),
	}
	for k, v := range r.specs {
		out.specs[k] = v
	}
	return out
}

// builtinSpecs is the paper's comparator set (Section 7.3) plus the Stubby
// variants restricted to one transformation group (Figure 11).
func builtinSpecs() []Spec {
	return []Spec{
		costBased("stubby", "full transformation-based cost-based optimizer (the paper's system)",
			CostBased{Label: "Stubby", Groups: optimizer.GroupAll}.bind),
		costBased("vertical", "Stubby restricted to the Vertical transformation group",
			CostBased{Label: "Vertical", Groups: optimizer.GroupVertical}.bind),
		costBased("horizontal", "Stubby restricted to the Horizontal transformation group",
			CostBased{Label: "Horizontal", Groups: optimizer.GroupHorizontal}.bind),
		{
			Name:        "baseline",
			Description: "production baseline: Pig rule-based packing + rule-of-thumb configs",
			New: func(c *mrsim.Cluster, seed int64) Planner {
				return Baseline{Cluster: c}
			},
		},
		costBased("starfish", "cost-based configuration-only tuning (no packing)", Starfish),
		{
			Name:        "ysmart",
			Description: "rule-based packing minimizing job count",
			New: func(c *mrsim.Cluster, seed int64) Planner {
				return YSmart{Cluster: c}
			},
		},
		costBased("mrshare", "cost-based horizontal scan sharing, rule-based configs", MRShare),
	}
}

// costBased is the spec of a cost-based planner.
func costBased(name, description string, bind func(*mrsim.Cluster, int64) CostBased) Spec {
	return Spec{Name: name, Description: description,
		New: func(c *mrsim.Cluster, seed int64) Planner { return bind(c, seed) }}
}

// defaultRegistry holds the built-ins, constructed once.
var defaultRegistry = func() *Registry {
	r := NewRegistry()
	for _, s := range builtinSpecs() {
		if err := r.Register(s); err != nil {
			panic(err)
		}
	}
	return r
}()

// DefaultRegistry returns the shared registry of built-in planners. Callers
// that want to add planners without affecting other users should Clone it.
func DefaultRegistry() *Registry { return defaultRegistry }
