package fleet

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestMembershipOwnerSkipsUnready: ownership degrades clockwise past
// unready peers and falls back to self when the whole fleet is down.
func TestMembershipOwnerSkipsUnready(t *testing.T) {
	m := NewMembership("http://self:1", nil, 0) // nil probe: peers trusted on Add
	m.Add("http://b:1")
	m.Add("http://c:1")

	keys := testKeys(2000)
	owners := make(map[string]bool)
	for _, k := range keys {
		owners[m.Owner(k)] = true
	}
	if len(owners) != 3 {
		t.Fatalf("ownership covers %d peers, want 3: %v", len(owners), owners)
	}

	m.MarkReady("http://b:1", false, "connection refused")
	for _, k := range keys {
		if o := m.Owner(k); o == "http://b:1" {
			t.Fatalf("unready peer still owns %s", k)
		}
	}
	m.MarkReady("http://c:1", false, "connection refused")
	for _, k := range keys[:100] {
		if o := m.Owner(k); o != "http://self:1" {
			t.Fatalf("owner with fleet down = %s, want self", o)
		}
	}
}

// TestMembershipProbeLoop: the prober flips peers ready/unready from
// live probe outcomes.
func TestMembershipProbeLoop(t *testing.T) {
	var mu sync.Mutex
	healthy := map[string]bool{"http://b:1": true, "http://c:1": false}
	probe := func(ctx context.Context, peer string) error {
		mu.Lock()
		defer mu.Unlock()
		if healthy[peer] {
			return nil
		}
		return errors.New("503 draining")
	}
	m := NewMembership("http://self:1", probe, 5*time.Millisecond)
	m.Add("http://b:1")
	m.Add("http://c:1")
	if got := m.ReadyOthers(); len(got) != 0 {
		t.Fatalf("peers ready before first probe: %v", got)
	}
	m.Start()
	defer m.Stop()

	waitFor := func(want string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if got := m.ReadyOthers(); len(got) == 1 && got[0] == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("ready peers never became [%s]: %v", want, m.Peers())
	}
	waitFor("http://b:1")
	mu.Lock()
	healthy["http://b:1"] = false
	healthy["http://c:1"] = true
	mu.Unlock()
	waitFor("http://c:1")
	for _, st := range m.Peers() {
		if st.ID == "http://b:1" && st.Err == "" {
			t.Fatal("downed peer has no recorded probe error")
		}
	}
}

func TestMembershipAdd(t *testing.T) {
	m := NewMembership("http://self:1", nil, 0)
	if m.Add("http://self:1") || m.Add("") {
		t.Fatal("self/empty add accepted")
	}
	if !m.Add("http://b:1") || m.Add("http://b:1") {
		t.Fatal("add not idempotent-false on duplicate")
	}
	ps := m.Peers()
	if len(ps) != 2 || !ps[0].Self || ps[0].ID != "http://self:1" {
		t.Fatalf("peers = %+v", ps)
	}
}
