package service_test

// Fleet end-to-end tests: several real Servers behind real listeners,
// talking to each other over HTTP exactly as separate qlecd processes
// would — membership probing, work stealing, lease expiry and the
// ring-owned shared cache all exercise the same code paths as a
// multi-host deployment, just in one process so the race detector sees
// everything.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// fleetNode is one in-process daemon with a real listener.
type fleetNode struct {
	srv  *service.Server
	cl   *client.Client
	ts   *httptest.Server
	url  string
	once sync.Once
}

// kill stops the node hard — the in-process stand-in for a crashed
// peer: its leases stop renewing and its listener refuses connections.
func (n *fleetNode) kill() {
	n.once.Do(func() {
		n.srv.Close()
		n.ts.Close()
	})
}

// startFleetNode boots a daemon whose advertised fleet identity is its
// own listener URL. The listener is created first (its address goes
// into FleetOptions.Self), then the Server, then the handler is patched
// in and the listener started.
func startFleetNode(t *testing.T, opt service.Options, fleetOpt service.FleetOptions) *fleetNode {
	t.Helper()
	var h atomic.Value // http.Handler
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hh, _ := h.Load().(http.Handler); hh != nil {
			hh.ServeHTTP(w, r)
			return
		}
		http.Error(w, "booting", http.StatusServiceUnavailable)
	}))
	url := "http://" + ts.Listener.Addr().String()
	fleetOpt.Self = url
	if fleetOpt.ProbeInterval == 0 {
		fleetOpt.ProbeInterval = 25 * time.Millisecond
	}
	if fleetOpt.StealInterval == 0 {
		fleetOpt.StealInterval = 5 * time.Millisecond
	}
	opt.Fleet = fleetOpt
	srv, err := service.New(opt)
	if err != nil {
		ts.Close()
		t.Fatal(err)
	}
	h.Store(srv.Handler())
	ts.Start()
	n := &fleetNode{
		srv: srv,
		ts:  ts,
		url: url,
		cl:  client.New(url, client.WithRetries(0), client.WithBackoff(time.Millisecond)),
	}
	t.Cleanup(n.kill)
	return n
}

// waitForRoster blocks until every node sees the whole fleet ready.
func waitForRoster(t *testing.T, nodes ...*fleetNode) {
	t.Helper()
	waitFor(t, func() bool {
		for _, n := range nodes {
			if metricSum(t, n.cl, "qlecd_fleet_peers_ready") < float64(len(nodes)) {
				return false
			}
		}
		return true
	}, "fleet roster never converged")
}

// fleetSweepCfg is a sweep sized so each cell takes long enough that
// idle peers reliably steal before the coordinator drains the pool.
func fleetSweepCfg() experiment.Config {
	cfg := experiment.PaperConfig()
	cfg.N = 24
	cfg.Side = 100
	cfg.K = 2
	cfg.Rounds = 60
	cfg.Seeds = []uint64{1, 2, 3}
	cfg.Lambdas = []float64{1, 2, 4, 8}
	cfg.Workers = 1
	return cfg
}

// libraryEnvelope runs a sweep request through the experiment library
// itself — Config.RunFig3/RunKSweep/RunNSweep on the normalized request,
// no daemon involved — and returns the result envelope a daemon must
// serve for it, as JSON: the byte-identity baseline for pooled sweeps.
func libraryEnvelope(t *testing.T, req service.Request) []byte {
	t.Helper()
	n := req.Normalize()
	hash, err := n.Hash()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	env := service.ResultEnvelope{Kind: n.Kind, Hash: hash}
	switch n.Kind {
	case service.KindFig3:
		env.Fig3, err = n.Config.RunFig3(ctx, n.Protocols)
	case service.KindKSweep:
		env.KSweep, err = n.Config.RunKSweep(ctx, n.Protocols[0], n.Ks, n.Lambda)
	case service.KindNSweep:
		env.NSweep, err = n.Config.RunNSweep(ctx, n.Protocols[0], n.Ns, n.Lambda)
	default:
		t.Fatalf("libraryEnvelope: %q is not a sweep kind", n.Kind)
	}
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestFleetSweepDistributesAndMatchesLocal is the headline fleet
// contract: a 3-daemon fleet executes one sweep's cells on at least two
// peers, and the merged result is byte-identical to the library's.
func TestFleetSweepDistributesAndMatchesLocal(t *testing.T) {
	req := service.Request{
		Kind:      service.KindFig3,
		Config:    fleetSweepCfg(),
		Protocols: []experiment.ProtocolID{experiment.QLEC, experiment.LEACH},
	}
	want := libraryEnvelope(t, req)

	n1 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{CellWorkers: 1})
	n2 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url, CellWorkers: 1})
	n3 := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: n1.url, CellWorkers: 1})
	waitForRoster(t, n1, n2, n3)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := n1.cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := n1.cl.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("fleet job %s (error %q), want done", done.State, done.Error)
	}

	env, err := n1.cl.Result(ctx, done.Hash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("fleet sweep result differs from the library's\nfleet:   %.200s\nlibrary: %.200s", got, want)
	}

	executors := 0
	for _, n := range []*fleetNode{n1, n2, n3} {
		if metricSum(t, n.cl, "qlecd_fleet_cells_executed_total") > 0 {
			executors++
		}
	}
	if executors < 2 {
		t.Errorf("cells executed on %d peers, want >= 2", executors)
	}
}

// TestFleetProxyCacheHits: a config computed on one daemon is a cache
// hit on another — answered through the ring owner with zero
// recomputation, whichever peer owns the hash.
func TestFleetProxyCacheHits(t *testing.T) {
	a := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{})
	b := startFleetNode(t, service.Options{Workers: 1}, service.FleetOptions{Join: a.url})
	waitForRoster(t, a, b)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Ring positions depend on the nodes' ephemeral ports, so one config
	// can land on either owner. Submitting several distinct configs
	// guarantees both placements occur: every one must be a B-side cache
	// hit, and at least one must have been proxied from A.
	for i := 0; i < 20; i++ {
		cfg := tinyCfg()
		cfg.Rounds = 2 + i
		req := oneRequest(cfg)
		ja, err := a.cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		// Stream to the terminal event rather than polling state: the
		// owner replication happens before the stream closes, so B's
		// lookup below can never race it.
		if err := a.cl.Events(ctx, ja.ID, func(service.Event) bool { return true }); err != nil {
			t.Fatal(err)
		}

		jb, err := b.cl.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		fin, err := b.cl.Wait(ctx, jb.ID, 2*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if fin.State != service.StateDone {
			t.Fatalf("config %d on B: %s (error %q), want done", i, fin.State, fin.Error)
		}
		if !fin.CacheHit {
			t.Fatalf("config %d on B recomputed instead of hitting the shared cache", i)
		}
		if metricSum(t, b.cl, "qlecd_fleet_proxy_hits_fetched_total") >= 1 {
			break
		}
	}
	if sims := metricSum(t, b.cl, "qlecd_simulations_total"); sims != 0 {
		t.Errorf("B ran %v simulations, want 0 (every config was computed on A)", sims)
	}
	if hits := metricSum(t, b.cl, "qlecd_fleet_proxy_hits_fetched_total"); hits < 1 {
		t.Errorf("B proxied %v cache hits from the ring owner, want >= 1", hits)
	}
}

// TestFleetPeerKillRecovery: a peer steals cells and dies without
// completing them; their leases expire, the cells re-pool, surviving
// peers finish them, and the merged result still matches the library's
// bit for bit. No cell is lost.
func TestFleetPeerKillRecovery(t *testing.T) {
	cfg := fleetSweepCfg()
	req := service.Request{
		Kind:      service.KindFig3,
		Config:    cfg,
		Protocols: []experiment.ProtocolID{experiment.QLEC},
	}
	want := libraryEnvelope(t, req)

	ttl := 400 * time.Millisecond
	n1 := startFleetNode(t, service.Options{Workers: 1},
		service.FleetOptions{CellWorkers: 1, LeaseTTL: ttl})
	// The victim hangs on every cell it steals, so killing it is the
	// only way its work ever finishes — via lease expiry.
	victim := startFleetNode(t, service.Options{
		Workers: 1,
		Run: func(ctx context.Context, req service.Request, h experiment.Hooks) (*service.ResultEnvelope, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}, service.FleetOptions{Join: n1.url, CellWorkers: 1, LeaseTTL: ttl})
	n3 := startFleetNode(t, service.Options{Workers: 1},
		service.FleetOptions{Join: n1.url, CellWorkers: 1, LeaseTTL: ttl})
	waitForRoster(t, n1, victim, n3)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	j, err := n1.cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the victim actually holds stolen work, then kill it.
	waitFor(t, func() bool { return metricSum(t, victim.cl, "qlecd_fleet_cells_stolen_in_total") >= 1 },
		"victim never stole a cell")
	victim.kill()

	done, err := n1.cl.Wait(ctx, j.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("job after peer kill: %s (error %q), want done", done.State, done.Error)
	}

	if exp := metricSum(t, n1.cl, "qlecd_fleet_lease_expiries_total"); exp < 1 {
		t.Errorf("coordinator recorded %v lease expiries, want >= 1 (the dead peer's cells must re-pool)", exp)
	}
	env, err := n1.cl.Result(ctx, done.Hash)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("post-recovery result differs from the library's\nfleet:   %.200s\nlibrary: %.200s", got, want)
	}
	// No lost cells: the pool is empty once the job is done.
	pending, leased := metricSum(t, n1.cl, "qlecd_fleet_cells_pending"), metricSum(t, n1.cl, "qlecd_fleet_cells_leased")
	if pending != 0 || leased != 0 {
		t.Errorf("pool not drained after completion: %v pending, %v leased", pending, leased)
	}
}
