package service_test

// End-to-end tests of the protocol-registry surface of the API:
// GET /v1/protocols enumeration, submit-time rejection of unknown
// protocol ids with a nearest-match suggestion, and alias
// canonicalization sharing one cache entry with the canonical spelling.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/protocol"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

func TestProtocolsEndpoint(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	infos := getList[protocol.Info](t, cl, "/v1/protocols")
	if len(infos) < 9 {
		t.Fatalf("registry served %d protocols, want >= 9", len(infos))
	}
	byID := map[string]int{}
	for i, info := range infos {
		byID[info.ID] = i
	}
	for _, want := range []string{"QLEC", "FCM", "k-means", "LEACH", "T-DEEC", "Q-LEACH"} {
		if _, ok := byID[want]; !ok {
			t.Errorf("roster missing %q", want)
		}
	}
	if i, ok := byID["T-DEEC"]; ok {
		if got := infos[i].DefaultParams["thresholdFrac"]; got != 0.7 {
			t.Errorf("T-DEEC default thresholdFrac = %v, want 0.7", got)
		}
	}
	if i, ok := byID["k-means"]; ok {
		found := false
		for _, a := range infos[i].Aliases {
			if a == "kmeans" {
				found = true
			}
		}
		if !found {
			t.Errorf("k-means aliases %v missing %q", infos[i].Aliases, "kmeans")
		}
	}
}

// An unknown protocol id must be rejected at submit time with a 400
// naming the nearest valid id, before anything is queued.
func TestSubmitUnknownProtocolSuggestsNearest(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	req := oneRequest(tinyCfg())
	req.Protocols = []experiment.ProtocolID{"QLEK"}
	_, err := cl.Submit(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit returned %v, want an API error", err)
	}
	if apiErr.Status != 400 {
		t.Fatalf("status = %d, want 400", apiErr.Status)
	}
	if !strings.Contains(apiErr.Message, `"QLEC"`) {
		t.Errorf("error %q does not suggest the nearest id QLEC", apiErr.Message)
	}
	if !strings.Contains(apiErr.Message, "/v1/protocols") {
		t.Errorf("error %q does not point at the roster endpoint", apiErr.Message)
	}
}

// LEACH's lottery needs k/N < 1, so a one-node LEACH job must be
// rejected at submit time with a 400 that names the need, not accepted
// and failed at run time.
func TestSubmitOneNodeLEACHRejected(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	cfg := tinyCfg()
	cfg.N, cfg.K = 1, 1
	req := oneRequest(cfg)
	req.Protocols = []experiment.ProtocolID{experiment.LEACH}
	_, err := cl.Submit(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit returned %v, want an API error", err)
	}
	if apiErr.Status != 400 {
		t.Fatalf("status = %d, want 400", apiErr.Status)
	}
	if !strings.Contains(apiErr.Message, "LEACH needs N ≥ 2") {
		t.Errorf("error %q does not name LEACH's need for N ≥ 2", apiErr.Message)
	}
}

// An alias submission canonicalizes before hashing, so "kmeans" and
// "k-means" are one experiment: the second submission is a cache hit
// and no second simulation runs.
func TestSubmitAliasSharesCacheWithCanonicalID(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	ctx := context.Background()

	req := oneRequest(tinyCfg())
	req.Protocols = []experiment.ProtocolID{"kmeans"}
	j1, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got := j1.Request.Protocols[0]; got != experiment.KMeans {
		t.Fatalf("stored job protocol = %q, want canonical %q", got, experiment.KMeans)
	}
	done, err := cl.Wait(ctx, j1.ID, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != service.StateDone {
		t.Fatalf("job finished %s (error %q), want done", done.State, done.Error)
	}

	req.Protocols = []experiment.ProtocolID{experiment.KMeans}
	j2, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.CacheHit {
		t.Fatal("canonical-id resubmission missed the cache")
	}
	if j2.Hash != j1.Hash {
		t.Fatalf("alias hash %s != canonical hash %s", j1.Hash, j2.Hash)
	}
	if sims := metricSum(t, cl, "qlecd_simulations_total"); sims != 1 {
		t.Fatalf("simulations run = %v, want 1", sims)
	}
}
