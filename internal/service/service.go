// Package service is qlecd's simulation-as-a-service core: a job queue,
// a bounded worker pool over the experiment harness, a content-addressed
// result cache and an HTTP/JSON + SSE front end.
//
// The lifecycle (DESIGN.md §9):
//
//	queued → running → done | failed | cancelled
//	            ↘ queued (retry on transient failure)
//
// Identity is content-addressed: a submission is hashed over its
// canonical form (Request.Hash, built on experiment.Config.Hash), and
// identical submissions never simulate twice — an in-flight duplicate
// coalesces onto the existing job, and a finished duplicate is answered
// from the result cache. Results persist as JSON under the data
// directory and survive daemon restarts; jobs interrupted by a crash
// reload as queued and run again.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/metrics"
	"qlec/internal/prof"
	"qlec/internal/protocol"
	"qlec/internal/sim"
)

// JobKind selects which experiment entry point a job drives.
type JobKind string

const (
	// KindOne is a single simulation (experiment.Config.RunOne):
	// protocol, λ, seed, optional lifespan methodology. Per-round
	// progress streams over SSE via the sim.Observer hook.
	KindOne JobKind = "one"
	// KindFig3 is the full Figure 3 λ sweep for a protocol set.
	KindFig3 JobKind = "fig3"
	// KindKSweep is the cluster-count sensitivity sweep.
	KindKSweep JobKind = "ksweep"
	// KindNSweep is the constant-density scalability sweep.
	KindNSweep JobKind = "nsweep"
	// KindCell is one sweep cell — a single (protocol, λ, seed)
	// replication pair with its fully derived configuration. Cells are
	// the fleet's unit of work distribution (DESIGN.md §14): sweeps
	// decompose into cells, idle peers steal them, and the coordinator
	// reassembles the outcomes. Cells are ordinary content-addressed
	// requests, so identical cells dedupe across sweeps, batches and
	// peers through the same cache as whole jobs.
	KindCell JobKind = "cell"
)

// JobState is a node of the job lifecycle state machine.
type JobState string

const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state ends the lifecycle.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Request describes one simulation job: a full experiment configuration
// plus the sweep kind and its parameters. Unused parameters for a kind
// are ignored and excluded from the job's identity (see Normalize).
type Request struct {
	Kind      JobKind                 `json:"kind"`
	Config    experiment.Config       `json:"config"`
	Protocols []experiment.ProtocolID `json:"protocols"`
	// Lambda is the traffic level for one/ksweep/nsweep jobs.
	Lambda float64 `json:"lambda,omitempty"`
	// Seed drives one-shot jobs (KindOne).
	Seed uint64 `json:"seed,omitempty"`
	// Lifespan switches KindOne to the death-line methodology.
	Lifespan bool `json:"lifespan,omitempty"`
	// Ks lists the cluster counts of a KindKSweep job.
	Ks []int `json:"ks,omitempty"`
	// Ns lists the network sizes of a KindNSweep job.
	Ns []int `json:"ns,omitempty"`
}

// Normalize returns the request with kind-irrelevant parameters zeroed
// and kind-implied configuration filled in, so that two submissions
// that would run the identical simulation share a canonical form and
// therefore a cache entry:
//
//   - KindOne runs exactly (Lambda, Seed), so Config.Lambdas/Seeds are
//     forced to the single-point equivalents.
//   - KindKSweep/KindNSweep take traffic from Lambda, so Config.Lambdas
//     is forced to [Lambda].
//   - KindFig3 ignores Lambda/Seed/Lifespan/Ks/Ns entirely.
func (r Request) Normalize() Request {
	n := r
	switch r.Kind {
	case KindOne:
		n.Config.Lambdas = []float64{r.Lambda}
		n.Config.Seeds = []uint64{r.Seed}
		n.Ks, n.Ns = nil, nil
	case KindCell:
		// A cell's identity is (config, protocol, λ, seed) alone — the
		// enclosing sweep's λ/seed lists must not leak into the hash, or
		// the same cell submitted from two different sweeps would never
		// dedupe.
		n.Config.Lambdas = []float64{r.Lambda}
		n.Config.Seeds = []uint64{r.Seed}
		n.Lifespan = false
		n.Ks, n.Ns = nil, nil
	case KindFig3:
		n.Lambda, n.Seed, n.Lifespan = 0, 0, false
		n.Ks, n.Ns = nil, nil
	case KindKSweep:
		n.Config.Lambdas = []float64{r.Lambda}
		n.Seed, n.Lifespan = 0, false
		n.Ns = nil
	case KindNSweep:
		n.Config.Lambdas = []float64{r.Lambda}
		n.Seed, n.Lifespan = 0, false
		n.Ks = nil
	}
	// Protocol aliases ("kmeans", "deec", "qleach") canonicalize to
	// their registry id, so an alias submission shares its cache entry
	// with the canonical spelling. Exact ids pass through unchanged,
	// which keeps pre-registry request hashes stable.
	if len(r.Protocols) > 0 {
		n.Protocols = make([]experiment.ProtocolID, len(r.Protocols))
		for i, p := range r.Protocols {
			n.Protocols[i] = experiment.CanonicalProtocol(p)
		}
	}
	// Auxiliary knobs left at their zero value fall back to the paper
	// baseline — zero is invalid (or physically meaningless, for the
	// energy model) for all of them — so a minimal HTTP submission works,
	// and one that spells the defaults out shares its cache entry with
	// one that omits them.
	def := experiment.PaperConfig()
	if n.Config.Sim == (sim.Config{}) {
		n.Config.Sim = def.Sim
	}
	if n.Config.Model == (energy.Model{}) {
		n.Config.Model = def.Model
	}
	if n.Config.LifespanDeathLine == 0 {
		n.Config.LifespanDeathLine = def.LifespanDeathLine
	}
	if n.Config.LifespanMaxRounds == 0 {
		n.Config.LifespanMaxRounds = def.LifespanMaxRounds
	}
	if n.Config.FCMLevels == 0 {
		n.Config.FCMLevels = def.FCMLevels
	}
	return n
}

// Validate checks the request against its kind. Call on the Normalize'd
// form — the server does.
func (r Request) Validate() error {
	switch r.Kind {
	case KindOne, KindCell, KindKSweep, KindNSweep:
		if len(r.Protocols) != 1 {
			return fmt.Errorf("service: kind %q takes exactly one protocol, got %d", r.Kind, len(r.Protocols))
		}
		if !(r.Lambda > 0) {
			return fmt.Errorf("service: kind %q requires a positive lambda, got %v", r.Kind, r.Lambda)
		}
	case KindFig3:
		if len(r.Protocols) == 0 {
			return fmt.Errorf("service: kind %q requires at least one protocol", r.Kind)
		}
	default:
		return fmt.Errorf("service: unknown job kind %q", r.Kind)
	}
	for _, p := range r.Protocols {
		if !experiment.KnownProtocol(p) {
			if near := protocol.Nearest(string(p)); near != "" {
				return fmt.Errorf("service: unknown protocol %q (did you mean %q? GET /v1/protocols lists the registry)", p, near)
			}
			return fmt.Errorf("service: unknown protocol %q", p)
		}
	}
	if r.Kind == KindKSweep && len(r.Ks) == 0 {
		return fmt.Errorf("service: ksweep requires a non-empty ks list")
	}
	if r.Kind == KindNSweep && len(r.Ns) == 0 {
		return fmt.Errorf("service: nsweep requires a non-empty ns list")
	}
	if err := r.Config.Validate(); err != nil {
		return err
	}
	for _, p := range r.Protocols {
		if err := r.Config.ValidateProtocol(p); err != nil {
			return err
		}
	}
	return nil
}

// canonicalRequest freezes the hashed field order of a request; the
// config slot holds experiment.Config.CanonicalJSON.
type canonicalRequest struct {
	Kind      JobKind                 `json:"kind"`
	Config    json.RawMessage         `json:"config"`
	Protocols []experiment.ProtocolID `json:"protocols"`
	Lambda    float64                 `json:"lambda"`
	Seed      uint64                  `json:"seed"`
	Lifespan  bool                    `json:"lifespan"`
	Ks        []int                   `json:"ks"`
	Ns        []int                   `json:"ns"`
}

// Hash returns the content address of the request: the SHA-256 hex
// digest of its normalized canonical JSON. Identical experiments hash
// identically regardless of execution knobs (workers, hooks) or
// kind-irrelevant parameters.
func (r Request) Hash() (string, error) {
	n := r.Normalize()
	cfg, err := n.Config.CanonicalJSON()
	if err != nil {
		return "", err
	}
	cr := canonicalRequest{
		Kind:      n.Kind,
		Config:    cfg,
		Protocols: n.Protocols,
		Lambda:    n.Lambda,
		Seed:      n.Seed,
		Lifespan:  n.Lifespan,
		Ks:        n.Ks,
		Ns:        n.Ns,
	}
	if cr.Protocols == nil {
		cr.Protocols = []experiment.ProtocolID{}
	}
	if cr.Ks == nil {
		cr.Ks = []int{}
	}
	if cr.Ns == nil {
		cr.Ns = []int{}
	}
	b, err := json.Marshal(cr)
	if err != nil {
		return "", fmt.Errorf("service: canonicalize request: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Job is one submission's lifecycle record.
type Job struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	// State is the current lifecycle node; see JobState.
	State   JobState `json:"state"`
	Request Request  `json:"request"`
	// Attempts counts execution starts (> 1 after transient retries).
	Attempts int `json:"attempts"`
	// Error holds the failure (or cancellation) reason in terminal
	// states.
	Error string `json:"error,omitempty"`
	// CacheHit marks a job satisfied from the result cache without
	// simulating.
	CacheHit bool `json:"cacheHit,omitempty"`
	// RequestID is the X-Request-ID of the submission that created this
	// record, correlating server logs with the client's. It is not part
	// of the job's identity (the content hash ignores it).
	RequestID string `json:"requestId,omitempty"`
	// TraceID is the distributed trace this job's spans record under —
	// extracted from the submission's traceparent header, or minted at
	// submission (at dequeue for a record persisted before jobs carried
	// one). Like RequestID it is not part of the job's identity.
	TraceID string `json:"traceId,omitempty"`
	// CancelRequested is set once DELETE has been observed; the job
	// reaches StateCancelled at the next round boundary.
	CancelRequested bool      `json:"cancelRequested,omitempty"`
	CreatedAt       time.Time `json:"createdAt"`
	StartedAt       time.Time `json:"startedAt"`
	FinishedAt      time.Time `json:"finishedAt"`
	// Resources is the job's accumulated execution bill (CPU, allocs,
	// heap growth, GC cycles) across every attempt — for distributed
	// sweeps, the sum of its cells' bills wherever they ran. Nil for
	// cache hits and jobs that never executed.
	Resources *prof.Usage `json:"resources,omitempty"`
}

// clone returns a shallow copy safe to serialize outside the server
// lock.
func (j *Job) clone() *Job {
	c := *j
	return &c
}

// ResultEnvelope carries one job result with its kind discriminator;
// exactly one payload field is set.
type ResultEnvelope struct {
	Kind JobKind `json:"kind"`
	Hash string  `json:"hash"`
	// One is the KindOne payload.
	One *metrics.Result `json:"one,omitempty"`
	// Fig3 is the KindFig3 payload.
	Fig3 []experiment.SweepResult `json:"fig3,omitempty"`
	// KSweep is the KindKSweep payload.
	KSweep []experiment.KSweepPoint `json:"ksweep,omitempty"`
	// NSweep is the KindNSweep payload.
	NSweep []experiment.NSweepPoint `json:"nsweep,omitempty"`
	// Cell is the KindCell payload: one replication pair's outcome.
	Cell *experiment.CellOutcome `json:"cell,omitempty"`
}

// EventType tags an SSE progress event.
type EventType string

const (
	// EventRound streams per-round progress of KindOne jobs.
	EventRound EventType = "round"
	// EventSweep streams cell-completion progress of sweep jobs.
	EventSweep EventType = "sweep"
	// EventState announces a lifecycle transition; the terminal one is
	// the stream's last event.
	EventState EventType = "state"
	// EventConfig announces one config of a batch reaching a terminal
	// state (batch streams only).
	EventConfig EventType = "config"
	// EventBatch streams a batch's rolled-up progress (batch streams
	// only): configs and cells done out of their totals.
	EventBatch EventType = "batch"
)

// RoundProgress is the payload of an EventRound.
type RoundProgress struct {
	Round     int     `json:"round"`
	Alive     int     `json:"alive"`
	Generated int     `json:"generated"`
	Delivered int     `json:"delivered"`
	EnergyJ   float64 `json:"energyJ"`
	Done      bool    `json:"done"`
}

// SweepProgress is the payload of an EventSweep.
type SweepProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// BatchProgress is the payload of an EventBatch.
type BatchProgress struct {
	ConfigsDone  int `json:"configsDone"`
	ConfigsTotal int `json:"configsTotal"`
	CellsDone    int `json:"cellsDone"`
	CellsTotal   int `json:"cellsTotal"`
	Failed       int `json:"failed,omitempty"`
}

// Event is one entry of a job's (or batch's) progress stream.
type Event struct {
	// Seq numbers events from 1 within a job; SSE ids carry it so
	// clients resume streams with Last-Event-ID.
	Seq    int            `json:"seq"`
	Type   EventType      `json:"type"`
	Round  *RoundProgress `json:"round,omitempty"`
	Sweep  *SweepProgress `json:"sweep,omitempty"`
	Config *BatchConfig   `json:"config,omitempty"`
	Batch  *BatchProgress `json:"batch,omitempty"`
	State  JobState       `json:"state,omitempty"`
	Error  string         `json:"error,omitempty"`
	// Resources rides the terminal state event of an executed job so
	// SSE consumers get the bill without a follow-up GET.
	Resources *prof.Usage `json:"resources,omitempty"`
}

// ErrTransient marks an error as retryable: a job failing with it goes
// back to the queue (bounded by Options.MaxRetries) instead of
// terminally failing. Wrap with fmt.Errorf("...: %w", ErrTransient), or
// implement interface{ Transient() bool }.
var ErrTransient = errors.New("transient failure")

// IsTransient classifies an execution error as worth retrying.
func IsTransient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}
