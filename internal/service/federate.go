package service

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"qlec/internal/obs"
)

// federateScrapeTimeout bounds each peer's /metrics scrape during a
// federation request; a slow peer degrades to peer_up 0, it cannot
// stall the whole endpoint.
const federateScrapeTimeout = 3 * time.Second

// handleFederate implements GET /metrics/federate: one merged
// Prometheus exposition for the whole fleet. The daemon scrapes its
// ready peers' /metrics, merges them with its own registry per the
// federation rules (counters and histograms summed, gauges labeled by
// instance — DESIGN.md §15), appends a synthetic qlecd_federate_peer_up
// gauge recording which scrapes succeeded, and lints the result before
// serving it. Standalone daemons federate a fleet of one.
func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) {
	var self bytes.Buffer
	if err := s.reg.WritePrometheus(&self); err != nil {
		writeErr(w, http.StatusInternalServerError, "federate: render local metrics: %v", err)
		return
	}
	selfExp, err := obs.ParseExposition(&self)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "federate: parse local metrics: %v", err)
		return
	}
	instances := []obs.Instance{{Name: s.fleet.self, Exp: selfExp}}
	up := map[string]float64{s.fleet.self: 1}

	for _, peer := range s.fleet.members.ReadyOthers() {
		ctx, cancel := context.WithTimeout(r.Context(), federateScrapeTimeout)
		body, err := s.fleet.peers.MetricsText(ctx, peer)
		cancel()
		if err != nil {
			s.log.Warn("federate: scrape peer", "peer", peer, "err", err)
			up[peer] = 0
			continue
		}
		exp, err := obs.ParseExposition(bytes.NewReader(body))
		if err != nil {
			s.log.Warn("federate: parse peer metrics", "peer", peer, "err", err)
			up[peer] = 0
			continue
		}
		instances = append(instances, obs.Instance{Name: peer, Exp: exp})
		up[peer] = 1
	}

	// The peer-up series already carry their instance label, so the
	// merge's gauge pass-through keeps them as-is.
	peerUp := &obs.MetricFamily{
		Name: "qlecd_federate_peer_up",
		Help: "1 when the instance's /metrics scrape succeeded during this federation request.",
		Type: "gauge",
	}
	for peer, v := range up {
		peerUp.Samples = append(peerUp.Samples, obs.Sample{
			Name:   peerUp.Name,
			Labels: []obs.Label{{Name: obs.InstanceLabel, Value: peer}},
			Value:  v,
		})
	}
	instances = append(instances, obs.Instance{
		Name: s.fleet.self,
		Exp:  &obs.Exposition{Families: []*obs.MetricFamily{peerUp}},
	})

	merged, err := obs.MergeExpositions(instances)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "federate: merge: %v", err)
		return
	}
	var out bytes.Buffer
	if err := obs.WriteExposition(&out, merged); err != nil {
		writeErr(w, http.StatusInternalServerError, "federate: render: %v", err)
		return
	}
	// Lint backstop: never serve a merged exposition a real Prometheus
	// would reject (mismatched bucket bounds, duplicate series).
	if err := obs.LintExposition(bytes.NewReader(out.Bytes())); err != nil {
		writeErr(w, http.StatusInternalServerError, "federate: merged exposition fails lint: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	_, _ = w.Write(out.Bytes())
}
