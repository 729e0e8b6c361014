package fleet

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Cell is one unit of pooled work: a content hash plus the
// serialized cell request (a service.Request — the fleet layer never
// decodes it, so the package stays free of service imports).
type Cell struct {
	Hash string          `json:"hash"`
	Spec json.RawMessage `json:"spec"`
	// Trace is the scheduling job's W3C traceparent, carried with the
	// cell so whoever executes it — the coordinator or a stealing peer —
	// records its spans into the same distributed trace.
	Trace string `json:"trace,omitempty"`
}

// Lease is one granted cell: execute it and report completion before
// Expires (or renew), or the cell silently returns to the pool and
// someone else runs it. Completion is keyed by content hash, so a
// "late" completion after expiry still counts — results are
// deterministic and content-addressed, re-execution is wasted work,
// never wrong work.
type Lease struct {
	ID      string    `json:"id"`
	Holder  string    `json:"holder"`
	Cell    Cell      `json:"cell"`
	Expires time.Time `json:"expires"`
	// Waited is how long the cell sat in the pending pool before this
	// lease — the queue-wait signal the coordinator feeds its cell-wait
	// histogram.
	Waited time.Duration `json:"waited,omitempty"`
}

// Table is the coordinator-side cell pool: pending cells FIFO, leased
// cells under TTL. All methods are safe for concurrent use.
type Table struct {
	mu      sync.Mutex
	pending []string         // FIFO of hashes
	cells   map[string]Cell  // every live cell (pending or leased)
	leases  map[string]lease // lease ID → grant
	byHash  map[string]string
	offered map[string]time.Time // when each cell last entered the pending pool
	nextID  int
	expired uint64 // cumulative lease expiries (metrics)
}

type lease struct {
	hash    string
	expires time.Time
}

// NewTable builds an empty pool.
func NewTable() *Table {
	return &Table{
		cells:   make(map[string]Cell),
		leases:  make(map[string]lease),
		byHash:  make(map[string]string),
		offered: make(map[string]time.Time),
	}
}

// Offer adds a cell to the pending pool; reports false when the hash is
// already pooled (pending or leased) — the pool dedupes by content.
func (t *Table) Offer(c Cell) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.cells[c.Hash]; ok {
		return false
	}
	t.cells[c.Hash] = c
	t.pending = append(t.pending, c.Hash)
	t.offered[c.Hash] = time.Now()
	return true
}

// Acquire leases up to max pending cells to holder until now+ttl.
func (t *Table) Acquire(holder string, max int, ttl time.Duration, now time.Time) []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Lease
	for len(out) < max && len(t.pending) > 0 {
		hash := t.pending[0]
		t.pending = t.pending[1:]
		cell, ok := t.cells[hash]
		if !ok {
			continue // completed or withdrawn while pending
		}
		t.nextID++
		var waited time.Duration
		if at, ok := t.offered[hash]; ok {
			if w := now.Sub(at); w > 0 {
				waited = w
			}
		}
		l := Lease{
			ID:      fmt.Sprintf("l%08d", t.nextID),
			Holder:  holder,
			Cell:    cell,
			Expires: now.Add(ttl),
			Waited:  waited,
		}
		t.leases[l.ID] = lease{hash: hash, expires: l.Expires}
		t.byHash[hash] = l.ID
		out = append(out, l)
	}
	return out
}

// Renew extends the named leases to now+ttl; returns how many were
// still live (an expired-and-re-pooled lease cannot be renewed).
func (t *Table) Renew(ids []string, ttl time.Duration, now time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, id := range ids {
		if l, ok := t.leases[id]; ok {
			l.expires = now.Add(ttl)
			t.leases[id] = l
			n++
		}
	}
	return n
}

// Complete removes a finished cell by hash, whatever its state —
// leased, re-pooled after expiry, or still pending (a cache hit arrived
// from elsewhere). Reports false when the hash was not pooled (already
// completed: duplicate completions are idempotent).
func (t *Table) Complete(hash string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.cells[hash]; !ok {
		return false
	}
	delete(t.cells, hash)
	delete(t.offered, hash)
	if id, ok := t.byHash[hash]; ok {
		delete(t.leases, id)
		delete(t.byHash, hash)
	}
	// A pending entry for the hash, if any, is skipped lazily by Acquire.
	return true
}

// Withdraw removes a cell that no longer has any waiter (its jobs were
// all cancelled) so nobody wastes work on it. Leased cells are left to
// finish — their result is still cacheable.
func (t *Table) Withdraw(hash string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, leased := t.byHash[hash]; leased {
		return false
	}
	if _, ok := t.cells[hash]; !ok {
		return false
	}
	delete(t.cells, hash)
	delete(t.offered, hash)
	return true
}

// ExpireDue returns every lease past due to the pending pool and
// reports the re-pooled cells — the "peer died mid-cell" path.
func (t *Table) ExpireDue(now time.Time) []Cell {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Cell
	for id, l := range t.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(t.leases, id)
		delete(t.byHash, l.hash)
		if cell, ok := t.cells[l.hash]; ok {
			t.pending = append(t.pending, l.hash)
			// Restart the wait clock: the histogram measures current
			// starvation, not cumulative time across expired leases.
			t.offered[l.hash] = now
			out = append(out, cell)
			t.expired++
		}
	}
	return out
}

// Stats reports pool depth: cells awaiting a lease, cells out on lease,
// and cumulative lease expiries.
func (t *Table) Stats() (pending, leased int, expired uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Pending entries may be stale (completed while queued); count live
	// cells not currently leased instead of the FIFO length.
	return len(t.cells) - len(t.byHash), len(t.byHash), t.expired
}
