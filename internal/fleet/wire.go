package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"qlec/internal/obs"
	"qlec/internal/prof"
)

// Wire types of the peer-to-peer cell protocol, mounted by
// internal/service under /v1/fleet/... Every body is small JSON; cell
// specs and result envelopes travel as raw messages so this package
// never depends on the service's schema.

// StealRequest asks a peer's coordinator pool for up to Max cells.
type StealRequest struct {
	Worker string `json:"worker"` // the thief's advertised base URL
	Max    int    `json:"max"`
}

// StealResponse grants zero or more leases.
type StealResponse struct {
	Leases []Lease `json:"leases"`
}

// CompleteRequest reports one executed cell back to its coordinator.
// Either Result carries the serialized result envelope, or Error the
// execution failure.
type CompleteRequest struct {
	Worker  string          `json:"worker"`
	LeaseID string          `json:"leaseId"`
	Hash    string          `json:"hash"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Usage is the executing daemon's resource bill for the cell, so
	// the coordinator can roll true cost up into its job and batch
	// records no matter where the cell ran.
	Usage *prof.Usage `json:"usage,omitempty"`
}

// RenewRequest extends held leases.
type RenewRequest struct {
	Worker   string   `json:"worker"`
	LeaseIDs []string `json:"leaseIds"`
}

// RenewResponse reports how many of the leases were still live.
type RenewResponse struct {
	Renewed int `json:"renewed"`
}

// JoinRequest announces a peer to the fleet.
type JoinRequest struct {
	Peer string `json:"peer"`
}

// Status is the GET /v1/fleet payload: the answering daemon's roster
// and pool state.
type Status struct {
	Self         string      `json:"self"`
	Peers        []PeerState `json:"peers"`
	CellsPending int         `json:"cellsPending"`
	CellsLeased  int         `json:"cellsLeased"`
	LeaseExpiry  uint64      `json:"leaseExpiries"`
	OpenBatches  int         `json:"openBatches"`
}

// Client is the thin HTTP client daemons use to talk to each other. It
// deliberately does not retry: fleet operations are periodic (steal
// polls, probes) or idempotent-by-hash (complete, cache put), and the
// caller's loop is the retry.
type Client struct {
	hc *http.Client
}

// peerTimeout bounds each peer HTTP call.
const peerTimeout = 10 * time.Second

// NewClient builds a peer client.
func NewClient() *Client {
	return &Client{hc: &http.Client{Timeout: peerTimeout}}
}

// ErrNotFound reports a 404 from a peer (no cached result).
var ErrNotFound = errors.New("fleet: not found")

// do runs one JSON round trip against peer+path.
func (c *Client) do(ctx context.Context, method, peer, path string, in, out any) error {
	var rd io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: encode %s: %w", path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(peer, "/")+path, rd)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Every peer call joins the caller's distributed trace, if any: the
	// receiving daemon's middleware extracts this header, so steals,
	// renewals, completions and cache proxying thread one trace ID
	// across the fleet.
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		req.Header.Set(obs.TraceParentHeader, sc.TraceParent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return ErrNotFound
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: %s %s%s: %d %s", method, peer, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("fleet: decode %s response: %w", path, err)
	}
	return nil
}

// Ready probes a peer's drain-aware readiness endpoint.
func (c *Client) Ready(ctx context.Context, peer string) error {
	return c.do(ctx, http.MethodGet, peer, "/readyz", nil, nil)
}

// Join announces self to peer and returns peer's (post-join) roster, so
// a joining daemon can transitively announce itself to the whole fleet.
func (c *Client) Join(ctx context.Context, peer, self string) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodPost, peer, "/v1/fleet/join", JoinRequest{Peer: self}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Steal asks peer for up to max cells, leased to worker.
func (c *Client) Steal(ctx context.Context, peer, worker string, max int) ([]Lease, error) {
	var resp StealResponse
	if err := c.do(ctx, http.MethodPost, peer, "/v1/fleet/steal", StealRequest{Worker: worker, Max: max}, &resp); err != nil {
		return nil, err
	}
	return resp.Leases, nil
}

// Complete reports an executed cell back to its coordinator peer.
func (c *Client) Complete(ctx context.Context, peer string, req CompleteRequest) error {
	return c.do(ctx, http.MethodPost, peer, "/v1/fleet/complete", req, nil)
}

// Renew extends held leases on the coordinator peer.
func (c *Client) Renew(ctx context.Context, peer string, req RenewRequest) (int, error) {
	var resp RenewResponse
	if err := c.do(ctx, http.MethodPost, peer, "/v1/fleet/renew", req, &resp); err != nil {
		return 0, err
	}
	return resp.Renewed, nil
}

// CacheGet fetches a content-addressed result from its owning peer;
// ErrNotFound when the owner has no result for the hash.
func (c *Client) CacheGet(ctx context.Context, peer, hash string) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, peer, "/v1/fleet/cache/"+hash, nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// CachePut replicates a result envelope to the hash's owning peer so
// future lookups anywhere in the fleet resolve with one proxy hop.
func (c *Client) CachePut(ctx context.Context, peer, hash string, env json.RawMessage) error {
	return c.do(ctx, http.MethodPut, peer, "/v1/fleet/cache/"+hash, env, nil)
}

// TraceSpans fetches the spans a peer recorded for one trace ID, for
// stitching a fleet-wide timeline.
func (c *Client) TraceSpans(ctx context.Context, peer, traceID string) ([]obs.SpanRecord, error) {
	var spans []obs.SpanRecord
	if err := c.do(ctx, http.MethodGet, peer, "/v1/fleet/trace/"+traceID, nil, &spans); err != nil {
		return nil, err
	}
	return spans, nil
}
