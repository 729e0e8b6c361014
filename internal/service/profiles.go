package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"qlec/internal/fleet"
	"qlec/internal/prof"
)

// profileCaptureBody is the POST /v1/profiles request: which profile to
// capture and, for cpu, how long to sample. fleet=true fans the capture
// out to every ready peer as well, so one request snapshots the whole
// fleet under load.
type profileCaptureBody struct {
	Kind    string  `json:"kind"`
	Seconds float64 `json:"seconds,omitempty"`
	Fleet   bool    `json:"fleet,omitempty"`
}

// profileCaptureResponse reports the artifacts captured (local first,
// then one per responding peer) plus per-peer errors — a partial fleet
// capture is a result, not a failure.
type profileCaptureResponse struct {
	Profiles []prof.Artifact   `json:"profiles"`
	Errors   map[string]string `json:"errors,omitempty"`
}

// handleProfileCapture implements POST /v1/profiles: capture a profile
// now, store it in the FIFO artifact table, and return its metadata.
func (s *Server) handleProfileCapture(w http.ResponseWriter, r *http.Request) {
	var body profileCaptureBody
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil && err != io.EOF {
		writeErr(w, http.StatusBadRequest, "decode capture request: %v", err)
		return
	}
	if body.Kind == "" {
		body.Kind = "cpu"
	}
	if !prof.ValidKind(body.Kind) {
		writeErr(w, http.StatusBadRequest, "unknown profile kind %q (want cpu, heap, goroutine, block or mutex)", body.Kind)
		return
	}
	dur := time.Duration(body.Seconds * float64(time.Second))
	art, err := prof.Capture(r.Context(), body.Kind, dur)
	if err != nil {
		writeErr(w, http.StatusConflict, "capture %s profile: %v", body.Kind, err)
		return
	}
	art.Instance = s.fleet.self
	art = s.profiles.Add(art)
	resp := profileCaptureResponse{Profiles: []prof.Artifact{artifactMeta(art)}}

	if body.Fleet {
		req := fleet.ProfileCaptureRequest{Kind: body.Kind, Seconds: body.Seconds}
		for _, peer := range s.fleet.members.ReadyOthers() {
			ctx, cancel := context.WithTimeout(s.hardCtx, peerCaptureTimeout(dur))
			pa, err := s.fleet.peers.CaptureProfile(ctx, peer, req)
			cancel()
			if err != nil {
				if resp.Errors == nil {
					resp.Errors = make(map[string]string)
				}
				resp.Errors[peer] = err.Error()
				continue
			}
			if pa.Instance == "" {
				pa.Instance = peer
			}
			resp.Profiles = append(resp.Profiles, *pa)
		}
	}
	writeJSON(w, http.StatusCreated, resp)
}

// peerCaptureTimeout pads the capture duration with network headroom.
func peerCaptureTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = 2 * time.Second
	}
	return d + 10*time.Second
}

// handleProfileList implements GET /v1/profiles: artifact metadata,
// newest first. ?fleet=1 merges every ready peer's listing, each entry
// tagged with the daemon that holds it.
func (s *Server) handleProfileList(w http.ResponseWriter, r *http.Request) {
	arts := s.profiles.List()
	for i := range arts {
		if arts[i].Instance == "" {
			arts[i].Instance = s.fleet.self
		}
	}
	if r.URL.Query().Get("fleet") != "" {
		for _, peer := range s.fleet.members.ReadyOthers() {
			ctx, cancel := context.WithTimeout(s.hardCtx, 3*time.Second)
			pas, err := s.fleet.peers.Profiles(ctx, peer)
			cancel()
			if err != nil {
				s.log.Warn("profiles: list peer", "peer", peer, "err", err)
				continue
			}
			for _, pa := range pas {
				if pa.Instance == "" {
					pa.Instance = peer
				}
				arts = append(arts, pa)
			}
		}
		sort.Slice(arts, func(i, k int) bool { return arts[i].CreatedAt.After(arts[k].CreatedAt) })
	}
	writeJSON(w, http.StatusOK, arts)
}

// handleProfileGet implements GET /v1/profiles/{id}: the raw profile
// bytes (Content-Type by format, metadata in X-Profile-* headers), or
// the JSON metadata alone with ?meta=1. The reserved id "latest"
// resolves to the newest artifact.
func (s *Server) handleProfileGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if id == "latest" {
		id = ""
	}
	art := s.profiles.Get(id)
	if art == nil {
		writeErr(w, http.StatusNotFound, "no profile %q (never captured, or aged out)", r.PathValue("id"))
		return
	}
	if r.URL.Query().Get("meta") != "" {
		writeJSON(w, http.StatusOK, artifactMeta(art))
		return
	}
	ct := "text/plain; charset=utf-8"
	if art.Format == "pprof" {
		ct = "application/octet-stream"
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Profile-ID", art.ID)
	w.Header().Set("X-Profile-Kind", art.Kind)
	w.Header().Set("X-Profile-Format", art.Format)
	if art.Reason != "" {
		w.Header().Set("X-Profile-Reason", art.Reason)
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(art.Data)
}

// artifactMeta strips the payload for JSON responses.
func artifactMeta(a *prof.Artifact) prof.Artifact {
	m := *a
	m.Data = nil
	return m
}

// runtimeTrend is the GET /v1/runtime response: the sampler's retained
// window, oldest first.
type runtimeTrend struct {
	IntervalSeconds float64              `json:"intervalSeconds"`
	Samples         []prof.RuntimeSample `json:"samples"`
}

// handleRuntime implements GET /v1/runtime: the continuous runtime
// sampler's ring (heap, GC, scheduler latency trends). With sampling
// disabled it still answers — with one on-demand sample — so clients
// need no special case.
func (s *Server) handleRuntime(w http.ResponseWriter, r *http.Request) {
	trend := runtimeTrend{
		IntervalSeconds: s.sampler.Interval().Seconds(),
		Samples:         s.sampler.Trend(),
	}
	if len(trend.Samples) == 0 {
		trend.Samples = []prof.RuntimeSample{s.sampler.SampleNow()}
	}
	writeJSON(w, http.StatusOK, trend)
}
