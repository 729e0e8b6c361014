package prof

import (
	"fmt"
	"sync"
	"time"

	"qlec/internal/obs"
)

// Artifact is one captured profile held in the store. Data is omitted
// from list responses (SizeBytes stands in) and streamed by
// GET /v1/profiles/{id}.
type Artifact struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // cpu | heap | goroutine | block | mutex
	// Format is "pprof" (gzipped protobuf, for go tool pprof) for cpu
	// captures and "text" (debug=1) for the lookup profiles, which
	// qlecprof can summarise and diff without the pprof toolchain.
	Format string `json:"format"`
	// Reason records why the capture happened: "manual" for API
	// requests, or the anomaly trigger ("scale-up", ...).
	Reason    string    `json:"reason"`
	Instance  string    `json:"instance,omitempty"` // set on fleet-aggregated listings
	CreatedAt time.Time `json:"createdAt"`
	// DurationSeconds is the sampling window for cpu captures.
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
	SizeBytes       int     `json:"sizeBytes"`
	Data            []byte  `json:"-"`
}

// meta returns a copy without the payload, for listings.
func (a *Artifact) meta() Artifact {
	m := *a
	m.Data = nil
	return m
}

// Store holds captured profiles FIFO-capped at max, in the same
// bounded map as the trace and audit tables: old artifacts are dropped
// as new ones arrive, and qlecd_profiles_held reports the current count.
type Store struct {
	mu   sync.Mutex // orders ID assignment with insertion
	seq  uint64
	arts *obs.Bounded[string, *Artifact]
}

// NewStore creates a store capped at max artifacts (min 1) and
// registers the qlecd_profiles_held gauge on reg.
func NewStore(max int, reg *obs.Registry) *Store {
	return &Store{arts: obs.NewBounded[string, *Artifact](max, reg, "qlecd_profiles_held",
		"Profile artifacts currently held in the in-memory store.")}
}

// Add assigns an ID and inserts the artifact, evicting the oldest
// entries beyond the cap. Returns the stored artifact.
func (st *Store) Add(a *Artifact) *Artifact {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	a.ID = fmt.Sprintf("p%08d", st.seq)
	if a.CreatedAt.IsZero() {
		a.CreatedAt = time.Now()
	}
	a.SizeBytes = len(a.Data)
	st.arts.Put(a.ID, a)
	return a
}

// List returns artifact metadata, newest first, without payloads.
func (st *Store) List() []Artifact {
	arts := st.arts.Values()
	out := make([]Artifact, 0, len(arts))
	for i := len(arts) - 1; i >= 0; i-- {
		out = append(out, arts[i].meta())
	}
	return out
}

// Get returns the artifact with the given ID (payload included), or
// nil. An empty id returns the newest artifact, if any.
func (st *Store) Get(id string) *Artifact {
	if id == "" {
		arts := st.arts.Values()
		if len(arts) == 0 {
			return nil
		}
		return arts[len(arts)-1]
	}
	a, _ := st.arts.Get(id)
	return a
}

// Len reports the current artifact count.
func (st *Store) Len() int { return st.arts.Len() }
