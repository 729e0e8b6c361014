// Package protocol is the clustering-protocol plugin registry: the
// single source of truth for which protocols the harness can build and
// how to build them.
//
// Every protocol implementation package (internal/core, internal/baseline,
// internal/tdeec, internal/qleach, ...) self-registers a Descriptor from
// a small register.go in its own package init. Consumers — the
// experiment harness, the qlecd job service, and the CLIs — resolve
// protocols exclusively through Lookup/All, so adding a competitor is
// one new package plus one Register call: no switch statements to edit
// anywhere.
//
// Ordering is explicit, not init-order dependent: All() sorts by each
// descriptor's Order rank (ties by ID), so listings, report rows and
// conformance tables are deterministic across runs and across builds
// regardless of import graph shuffles.
package protocol

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"qlec/internal/cluster"
	"qlec/internal/energy"
	"qlec/internal/network"
)

// BuildContext carries everything a factory needs to bind a protocol
// instance to one deployed network. The experiment layer fills it from
// its Config; standalone callers (tests, tools) fill it by hand.
type BuildContext struct {
	// Net is the deployed network the instance will run on.
	Net *network.Network
	// Model holds the radio constants (Table 2).
	Model energy.Model
	// K is the cluster count per round, already clamped to [1, N].
	K int
	// TotalRounds is the planned lifespan R (Eq. 2 / Eq. 4 schedules).
	TotalRounds int
	// DeathLine excludes depleted nodes from head duty.
	DeathLine energy.Joules
	// Seed drives the protocol's deterministic RNG streams.
	Seed uint64
	// Bits is the data packet size L (Q-learning rewards, Eq. 18).
	Bits int
	// FCMLevels is the FCM baseline's hierarchy depth.
	FCMLevels int
	// Params are the resolved protocol tunables: the descriptor's
	// DefaultParams overlaid with the experiment's ProtocolParams.
	// Factories read them via Param.
	Params map[string]float64
}

// Param returns the named tunable, or def when absent.
func (b BuildContext) Param(name string, def float64) float64 {
	if v, ok := b.Params[name]; ok {
		return v
	}
	return def
}

// Factory builds one protocol instance bound to the context's network.
type Factory func(BuildContext) (cluster.Protocol, error)

// Descriptor declares one registrable protocol.
type Descriptor struct {
	// ID is the canonical protocol name ("QLEC", "k-means", "T-DEEC").
	// It is wire-visible (job requests, result tables, cache keys), so
	// renaming an ID invalidates cached results — treat it as frozen.
	ID string
	// Aliases are accepted spellings that resolve to ID ("kmeans",
	// "qleach"). Aliases never appear in output or cache keys.
	Aliases []string
	// Paper cites the algorithm's source.
	Paper string
	// Summary is a one-line description for listings.
	Summary string
	// Order ranks the descriptor in All(): listings, reports and the
	// conformance table iterate in ascending Order. Gaps are fine.
	Order int
	// Figure3Rank marks membership (1-based position) in the paper's
	// headline comparison set; 0 = not a Figure 3 protocol.
	Figure3Rank int
	// Ablation marks QLEC design-choice variants; tournament defaults
	// exclude them (they are diagnostic, not competitors).
	Ablation bool
	// DefaultParams are the protocol's tunables with their defaults,
	// overridable per experiment via Config.ProtocolParams.
	DefaultParams map[string]float64
	// MinNodes is the smallest network the protocol runs on; 0 means
	// any. Configuration checks reject smaller networks up front
	// instead of letting the factory fail at run time.
	MinNodes int
	// Factory builds instances. Required.
	Factory Factory
}

// Registry is an isolated descriptor table. The package-level Default
// registry is the one protocol packages register into; tests build
// private registries to exercise edge cases without global state.
type Registry struct {
	mu      sync.RWMutex
	byID    map[string]*Descriptor
	byAlias map[string]string // lowercased alias or id → canonical id
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byID:    make(map[string]*Descriptor),
		byAlias: make(map[string]string),
	}
}

// Default is the process-wide registry. Protocol packages register into
// it from init; import qlec/internal/protocol/all (blank) to guarantee
// every in-tree protocol is present.
var Default = NewRegistry()

// Register adds a descriptor. It panics on an invalid descriptor or on
// any ID/alias collision — registration happens in package init, where
// a duplicate is a programming error that must not ship.
func (r *Registry) Register(d Descriptor) {
	if d.ID == "" {
		panic("protocol: Register with empty ID")
	}
	if d.Factory == nil {
		panic(fmt.Sprintf("protocol: Register(%q) with nil Factory", d.ID))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[d.ID]; dup {
		panic(fmt.Sprintf("protocol: duplicate registration of %q", d.ID))
	}
	keys := append([]string{d.ID}, d.Aliases...)
	for _, k := range keys {
		lk := strings.ToLower(k)
		if prev, dup := r.byAlias[lk]; dup {
			panic(fmt.Sprintf("protocol: name %q of %q collides with %q", k, d.ID, prev))
		}
	}
	dc := d
	dc.Aliases = append([]string(nil), d.Aliases...)
	if d.DefaultParams != nil {
		dc.DefaultParams = make(map[string]float64, len(d.DefaultParams))
		for k, v := range d.DefaultParams {
			dc.DefaultParams[k] = v
		}
	}
	r.byID[d.ID] = &dc
	for _, k := range keys {
		r.byAlias[strings.ToLower(k)] = d.ID
	}
}

// Lookup resolves a protocol name — canonical ID or alias, case
// insensitive — to its descriptor.
func (r *Registry) Lookup(name string) (Descriptor, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.byAlias[strings.ToLower(name)]
	if !ok {
		return Descriptor{}, false
	}
	return *r.byID[id], true
}

// Canonical maps any accepted spelling to the canonical ID; unknown
// names pass through unchanged (validation rejects them later, with the
// original spelling in the error).
func (r *Registry) Canonical(name string) string {
	if d, ok := r.Lookup(name); ok {
		return d.ID
	}
	return name
}

// Known reports whether name resolves to a registered protocol. O(1).
func (r *Registry) Known(name string) bool {
	_, ok := r.Lookup(name)
	return ok
}

// All returns every descriptor in deterministic order: ascending Order
// rank, ties by ID.
func (r *Registry) All() []Descriptor {
	r.mu.RLock()
	out := make([]Descriptor, 0, len(r.byID))
	for _, d := range r.byID {
		out = append(out, *d)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Figure3 returns the paper's headline comparison set in Figure3Rank
// order.
func (r *Registry) Figure3() []Descriptor {
	var out []Descriptor
	for _, d := range r.All() {
		if d.Figure3Rank > 0 {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Figure3Rank < out[j].Figure3Rank })
	return out
}

// Nearest returns the registered name (canonical ID or alias) closest
// to the given unknown name by case-insensitive edit distance, as the
// canonical ID — the "did you mean" suggestion for validation errors.
// An empty registry returns "".
func (r *Registry) Nearest(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lname := strings.ToLower(name)
	best, bestD := "", -1
	// Iterate names sorted so equal-distance ties resolve the same way
	// every run.
	keys := make([]string, 0, len(r.byAlias))
	for k := range r.byAlias {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := editDistance(lname, k)
		if bestD < 0 || d < bestD {
			best, bestD = r.byAlias[k], d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// MergeParams resolves a protocol's effective tunables: the
// descriptor's defaults overlaid with the experiment's overrides.
// Returns nil when both are empty, so the common (no-tunable) path
// allocates nothing.
func MergeParams(defaults, overrides map[string]float64) map[string]float64 {
	if len(defaults) == 0 && len(overrides) == 0 {
		return nil
	}
	out := make(map[string]float64, len(defaults)+len(overrides))
	for k, v := range defaults {
		out[k] = v
	}
	for k, v := range overrides {
		out[k] = v
	}
	return out
}

// Info is a descriptor's serializable projection — what qlecd serves at
// GET /v1/protocols and the CLIs print under -list-protocols.
type Info struct {
	ID            string             `json:"id"`
	Aliases       []string           `json:"aliases,omitempty"`
	Paper         string             `json:"paper,omitempty"`
	Summary       string             `json:"summary,omitempty"`
	Figure3Rank   int                `json:"figure3Rank,omitempty"`
	Ablation      bool               `json:"ablation,omitempty"`
	DefaultParams map[string]float64 `json:"defaultParams,omitempty"`
}

// Infos projects All() for serialization.
func (r *Registry) Infos() []Info {
	all := r.All()
	out := make([]Info, len(all))
	for i, d := range all {
		out[i] = Info{
			ID:            d.ID,
			Aliases:       d.Aliases,
			Paper:         d.Paper,
			Summary:       d.Summary,
			Figure3Rank:   d.Figure3Rank,
			Ablation:      d.Ablation,
			DefaultParams: d.DefaultParams,
		}
	}
	return out
}

// Package-level wrappers over Default, for the common case.

// Register adds a descriptor to the Default registry.
func Register(d Descriptor) { Default.Register(d) }

// Lookup resolves a name against the Default registry.
func Lookup(name string) (Descriptor, bool) { return Default.Lookup(name) }

// Canonical resolves a name to its canonical ID via Default.
func Canonical(name string) string { return Default.Canonical(name) }

// Known reports whether the Default registry knows the name.
func Known(name string) bool { return Default.Known(name) }

// All lists the Default registry's descriptors in deterministic order.
func All() []Descriptor { return Default.All() }

// Figure3 lists the paper's comparison set from the Default registry.
func Figure3() []Descriptor { return Default.Figure3() }

// Nearest suggests the closest registered name from Default.
func Nearest(name string) string { return Default.Nearest(name) }

// Infos projects the Default registry for serialization.
func Infos() []Info { return Default.Infos() }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
