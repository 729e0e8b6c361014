package fleet

import (
	"context"
	"sort"
	"sync"
	"time"
)

// ProbeFunc checks one peer's readiness (the service layer probes
// GET /readyz); a nil error marks the peer ready.
type ProbeFunc func(ctx context.Context, peer string) error

// PeerState is one peer's membership view, as reported by /v1/fleet.
type PeerState struct {
	ID    string `json:"id"` // advertised base URL
	Self  bool   `json:"self,omitempty"`
	Ready bool   `json:"ready"`
	// Err is the last probe failure; empty while ready.
	Err       string    `json:"err,omitempty"`
	LastProbe time.Time `json:"lastProbe,omitzero"`
}

// Membership tracks the fleet roster and its health over a consistent-
// hash ring. The local daemon is always a ready member; other peers
// start unready until the first successful probe, so work never routes
// to a peer that has not answered /readyz yet. Ownership lookups skip
// unready peers by walking the ring clockwise — a drained or dead owner
// degrades to its successor instead of black-holing its key range.
type Membership struct {
	self     string
	probe    ProbeFunc
	interval time.Duration

	mu    sync.Mutex
	ring  *Ring
	state map[string]*PeerState

	stop   context.CancelFunc
	donech chan struct{}
}

// NewMembership builds a roster containing only self. probe may be nil
// (static all-ready membership — tests); interval <= 0 defaults to 1s.
func NewMembership(self string, probe ProbeFunc, interval time.Duration) *Membership {
	if interval <= 0 {
		interval = time.Second
	}
	m := &Membership{
		self:     self,
		probe:    probe,
		interval: interval,
		ring:     NewRing(),
		state:    map[string]*PeerState{self: {ID: self, Self: true, Ready: true}},
	}
	m.ring.Add(self)
	return m
}

// Add inserts a peer into the roster and ring; reports whether it was
// new. A freshly added peer is unready until probed (or MarkReady),
// unless the membership has no prober, in which case it is trusted
// immediately.
func (m *Membership) Add(peer string) bool {
	if peer == "" || peer == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.state[peer]; ok {
		return false
	}
	m.state[peer] = &PeerState{ID: peer, Ready: m.probe == nil}
	m.ring.Add(peer)
	return true
}

// MarkReady records a probe outcome for a known peer.
func (m *Membership) MarkReady(peer string, ready bool, errMsg string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.state[peer]; ok && !st.Self {
		st.Ready = ready
		st.Err = errMsg
		st.LastProbe = time.Now().UTC()
	}
}

// Peers snapshots the roster, self first then sorted by ID.
func (m *Membership) Peers() []PeerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]PeerState, 0, len(m.state))
	for _, st := range m.state {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ReadyOthers lists ready peers other than self, sorted — the steal and
// proxy targets.
func (m *Membership) ReadyOthers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for id, st := range m.state {
		if !st.Self && st.Ready {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Owner resolves the ready owner of a key: the ring owner if ready,
// else the first ready successor clockwise. Falls back to self when no
// peer is ready (a fleet of one still owns every key).
func (m *Membership) Owner(key string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, peer := range m.ring.Successors(key, m.ring.Len()) {
		if st, ok := m.state[peer]; ok && st.Ready {
			return peer
		}
	}
	return m.self
}

// Start launches the background probe loop (no-op without a prober).
// Stop with Stop; Start is single-use.
func (m *Membership) Start() {
	if m.probe == nil || m.stop != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.stop = cancel
	m.donech = make(chan struct{})
	go func() {
		defer close(m.donech)
		t := time.NewTicker(m.interval)
		defer t.Stop()
		for {
			m.probeAll(ctx)
			select {
			case <-t.C:
			case <-ctx.Done():
				return
			}
		}
	}()
}

// Stop halts the probe loop and waits for it to exit.
func (m *Membership) Stop() {
	if m.stop == nil {
		return
	}
	m.stop()
	<-m.donech
	m.stop = nil
}

// probeAll probes every non-self peer concurrently, bounded by the
// probe interval so a hung peer cannot stall the loop.
func (m *Membership) probeAll(ctx context.Context) {
	m.mu.Lock()
	var others []string
	for id, st := range m.state {
		if !st.Self {
			others = append(others, id)
		}
	}
	m.mu.Unlock()
	var wg sync.WaitGroup
	for _, peer := range others {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.interval)
			defer cancel()
			if err := m.probe(pctx, peer); err != nil {
				m.MarkReady(peer, false, err.Error())
			} else {
				m.MarkReady(peer, true, "")
			}
		}(peer)
	}
	wg.Wait()
}
