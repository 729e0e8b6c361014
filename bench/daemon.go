package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qlec/internal/obs"
	"qlec/internal/service"
	"qlec/internal/service/client"
	"qlec/internal/stats"
)

// qlecdOptions returns the service options cmd/qlecd builds from its
// flag defaults, with the operational log discarded as under -quiet.
func qlecdOptions() service.Options {
	return service.Options{
		Workers:               2,
		QueueLimit:            256,
		MaxRetries:            1,
		TraceHistory:          64,
		AuditHistory:          64,
		ProfileHistory:        32,
		RuntimeSampleInterval: 10 * time.Second,
		AutoProfileMinGap:     5 * time.Minute,
		Fleet:                 service.FleetOptions{LeaseTTL: 15 * time.Second},
	}
}

// daemon is one in-process qlecd: a service.Server behind an httptest
// listener, and a client for it.
type daemon struct {
	srv *service.Server
	ts  *httptest.Server
	hc  *http.Client
	cl  *client.Client
	url string
}

// startDaemon boots a daemon and waits until it answers /readyz. In
// fleet mode it advertises its own listener URL, so the listener is
// created before the server and the handler installed once it exists.
func startDaemon(ctx context.Context, opt service.Options, fleetMode bool, hc *http.Client) (*daemon, error) {
	var h atomic.Value // http.Handler
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hh, _ := h.Load().(http.Handler); hh != nil {
			hh.ServeHTTP(w, r)
			return
		}
		http.Error(w, "booting", http.StatusServiceUnavailable)
	}))
	url := "http://" + ts.Listener.Addr().String()
	if fleetMode {
		opt.Fleet.Self = url
	}
	srv, err := service.New(opt)
	if err != nil {
		ts.Close()
		return nil, err
	}
	h.Store(srv.Handler())
	ts.Start()
	d := &daemon{srv: srv, ts: ts, hc: hc, cl: client.New(url, client.WithHTTPClient(hc)), url: url}
	if err := d.cl.Ready(ctx); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the server (ending its event streams), then the listener,
// and drops the client's idle connections to it.
func (d *daemon) close() {
	d.srv.Close()
	d.ts.Close()
	d.hc.CloseIdleConnections()
}

// scrape reads the daemon's Prometheus exposition.
func (d *daemon) scrape(ctx context.Context) (*obs.Exposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseExposition(resp.Body)
}

// sampleSum sums every sample named name (a counter, a gauge, or a
// histogram's _sum or _count) across label sets.
func sampleSum(e *obs.Exposition, name string) float64 {
	sum := 0.0
	for _, f := range e.Families {
		for _, s := range f.Samples {
			if s.Name == name {
				sum += s.Value
			}
		}
	}
	return sum
}

// countersDelta is the growth of the named samples between two scrapes.
func countersDelta(before, after *obs.Exposition, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, n := range names {
		out[n] = sampleSum(after, n) - sampleSum(before, n)
	}
	return out
}

// httpClient returns the load generator's HTTP client; on traced runs
// its transport records a span per request.
func httpClient(traced bool) *http.Client {
	var rt http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if traced {
		rt = spanTransport{rt}
	}
	return &http.Client{Transport: rt, Timeout: time.Minute}
}

// spanKey carries the span an HTTP request belongs to.
type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// spanTransport records one span per client call, from sending the
// request to closing the response body (so an event stream's span
// covers the whole wait), under the span in the request's context.
type spanTransport struct{ base http.RoundTripper }

func (st spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(*span)
	if parent == nil {
		return st.base.RoundTrip(req)
	}
	s := parent.child(callName(req))
	resp, err := st.base.RoundTrip(req)
	if err != nil {
		s.end()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, s: s}
	return resp, nil
}

// callName names a client call after the API step it performs.
func callName(req *http.Request) string {
	p := req.URL.Path
	switch {
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasPrefix(p, "/v1/results/"):
		return "result"
	case req.Method == http.MethodPost:
		return "submit"
	default:
		return "poll"
	}
}

type spanBody struct {
	io.ReadCloser
	s    *span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.s.end() })
	return err
}

// addCallMetrics reports the median duration of each client call,
// split by the class (the root span's name) of the operation it served.
func (t *tracer) addCallMetrics(r *report) {
	t.mu.Lock()
	class := map[string]string{}
	for _, s := range t.spans {
		if s.Parent == "" && strings.HasPrefix(s.Instance, "client-") {
			class[s.SpanID] = s.Name
		}
	}
	calls := map[string][]float64{}
	for _, s := range t.spans {
		if c, ok := class[s.Parent]; ok {
			name := "client." + s.Name + "." + c + "_ms_p50"
			calls[name] = append(calls[name], float64(s.DurUS)/1000)
		}
	}
	t.mu.Unlock()
	for _, name := range sortedKeys(calls) {
		r.add(name, stats.Median(calls[name]), "ms", len(calls[name]))
	}
}

// removeAll deletes a scratch directory, reporting a failure on stderr
// only: the run's results do not depend on it.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
}
