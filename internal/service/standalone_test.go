package service_test

// Standalone-daemon tests: a daemon started without a fleet identity is
// a fleet of one. Its sweeps run through the same cell pool as a
// fleet's, its executors wake on local offers instead of polling, it
// reports no steal starvation (there is nobody to steal from), and it
// refuses joins.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"qlec/internal/experiment"
	"qlec/internal/fleet"
	"qlec/internal/obs"
	"qlec/internal/service"
	"qlec/internal/service/client"
)

// scrapeMetrics parses a daemon's /metrics exposition.
func scrapeMetrics(t *testing.T, cl *client.Client) *obs.Exposition {
	t.Helper()
	exp, err := obs.ParseExposition(bytes.NewReader(httpGet(t, cl.BaseURL()+"/metrics")))
	if err != nil {
		t.Fatal(err)
	}
	return exp
}

// metricSum sums every sample of one counter or gauge family in a
// daemon's /metrics exposition, across label sets; 0 when absent.
func metricSum(t *testing.T, cl *client.Client, family string) float64 {
	t.Helper()
	var sum float64
	if f := scrapeMetrics(t, cl).Family(family); f != nil {
		for _, s := range f.Samples {
			sum += s.Value
		}
	}
	return sum
}

// sampleValue reads the sample named name in family, restricted to the
// histogram bucket le when le is non-empty; 0 when absent.
func sampleValue(exp *obs.Exposition, family, name, le string) float64 {
	if f := exp.Family(family); f != nil {
		for _, s := range f.Samples {
			if s.Name == name && s.Label("le") == le {
				return s.Value
			}
		}
	}
	return 0
}

// TestStandaloneSweepsMatchLibrary: every sweep kind submitted to a
// one-daemon server returns the library's envelope byte for byte, and
// its event stream ends its sweep progress at Done == Total.
func TestStandaloneSweepsMatchLibrary(t *testing.T) {
	cfg := tinyCfg()
	cfg.Lambdas = []float64{2, 4}
	cfg.Seeds = []uint64{1, 2}
	qlec := []experiment.ProtocolID{experiment.QLEC}
	cases := []struct {
		name string
		req  service.Request
	}{
		{"fig3", service.Request{Kind: service.KindFig3, Config: cfg,
			Protocols: []experiment.ProtocolID{experiment.QLEC, experiment.LEACH}}},
		{"ksweep", service.Request{Kind: service.KindKSweep, Config: cfg, Protocols: qlec,
			Lambda: 4, Ks: []int{2, 3}}},
		{"nsweep", service.Request{Kind: service.KindNSweep, Config: cfg, Protocols: qlec,
			Lambda: 4, Ns: []int{16, 24}}},
	}
	_, cl := newTestServer(t, service.Options{Workers: 1})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := libraryEnvelope(t, tc.req)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			j, err := cl.Submit(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			events := collectEvents(t, cl, j.ID)
			var last *service.SweepProgress
			for _, e := range events {
				if e.Type == service.EventSweep {
					last = e.Sweep
				}
			}
			if last == nil || last.Total == 0 || last.Done != last.Total {
				t.Errorf("last sweep event = %+v, want Done == Total > 0", last)
			}
			done, err := cl.Job(ctx, j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if done.State != service.StateDone {
				t.Fatalf("sweep %s (error %q), want done", done.State, done.Error)
			}
			env, err := cl.Result(ctx, done.Hash)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("standalone sweep differs from the library's\ndaemon:  %.200s\nlibrary: %.200s", got, want)
			}
		})
	}
}

// TestStandaloneIdleNoStarvation: idle executors on a fleet of one have
// no peer to steal from, so they never count steal starvation.
func TestStandaloneIdleNoStarvation(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	time.Sleep(time.Second)
	if v := metricSum(t, cl, "qlecd_fleet_steal_starvation_total"); v != 0 {
		t.Errorf("idle standalone daemon counted %v steal starvations, want 0", v)
	}
}

// TestStandaloneSweepWakesExecutor: a cell offered to an idle daemon
// starts at once. The steal tick is set far beyond the 0.1 s bucket, so
// only the wake-on-offer can put the cell's pool wait under it.
func TestStandaloneSweepWakesExecutor(t *testing.T) {
	_, cl := newTestServer(t, service.Options{
		Workers: 1,
		Fleet:   service.FleetOptions{StealInterval: time.Minute},
	})
	time.Sleep(50 * time.Millisecond) // let the executors go idle
	cfg := tinyCfg()
	req := service.Request{Kind: service.KindFig3, Config: cfg,
		Protocols: []experiment.ProtocolID{experiment.QLEC}} // one λ × one seed = one cell
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := cl.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if done, err := cl.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if done.State != service.StateDone {
		t.Fatalf("sweep %s (error %q), want done", done.State, done.Error)
	}
	exp := scrapeMetrics(t, cl)
	const h = "qlecd_fleet_cell_wait_seconds"
	count := sampleValue(exp, h, h+"_count", "")
	fast := sampleValue(exp, h, h+"_bucket", "0.1")
	if count != 1 || fast != 1 {
		t.Errorf("cell waits: %v observed, %v under 0.1s; want 1 and 1", count, fast)
	}
}

// TestStandaloneRefusesJoin: a daemon started without a self URL is
// not joinable — peers could not reach it back, yet its executors would
// start stealing from them.
func TestStandaloneRefusesJoin(t *testing.T) {
	_, cl := newTestServer(t, service.Options{Workers: 1})
	resp, err := http.Post(cl.BaseURL()+"/v1/fleet/join", "application/json",
		strings.NewReader(`{"peer":"http://127.0.0.1:1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("join on a standalone daemon: %d, want 400", resp.StatusCode)
	}
	var st fleet.Status
	if err := json.Unmarshal(httpGet(t, cl.BaseURL()+"/v1/fleet"), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Peers) != 1 {
		t.Errorf("roster after a refused join = %+v, want self only", st.Peers)
	}
}
