package obs

import "sync"

// Bounded is a concurrency-safe map holding at most max entries. When
// a Put of a new key would exceed the cap, the oldest insertion is
// evicted (plain FIFO: reads do not refresh an entry, and rewriting a
// held key keeps its place). It backs qlecd's trace store.
type Bounded[K comparable, V any] struct {
	mu    sync.Mutex
	byKey map[K]V
	order []K // insertion order, oldest first
	max   int
}

// NewBounded returns a map capped at max entries (min 1). With a
// non-nil reg it registers a gauge named held reporting Len.
func NewBounded[K comparable, V any](max int, reg *Registry, held, help string) *Bounded[K, V] {
	if max < 1 {
		max = 1
	}
	b := &Bounded[K, V]{byKey: make(map[K]V), max: max}
	if reg != nil {
		reg.GaugeFunc(held, help, func() float64 { return float64(b.Len()) })
	}
	return b
}

// Put stores v under k, evicting the oldest entries beyond the cap.
func (b *Bounded[K, V]) Put(k K, v V) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.byKey[k]; !ok {
		b.order = append(b.order, k)
	}
	b.byKey[k] = v
	for len(b.order) > b.max {
		delete(b.byKey, b.order[0])
		b.order = b.order[1:]
	}
}

// Get returns the value held under k.
func (b *Bounded[K, V]) Get(k K) (V, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.byKey[k]
	return v, ok
}

// Len reports the number of entries held.
func (b *Bounded[K, V]) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byKey)
}

// Values returns the held values, oldest first.
func (b *Bounded[K, V]) Values() []V {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]V, len(b.order))
	for i, k := range b.order {
		out[i] = b.byKey[k]
	}
	return out
}
