package service

import (
	"context"
	"fmt"
	"time"

	"qlec/internal/audit"
	"qlec/internal/energy"
	"qlec/internal/experiment"
	"qlec/internal/obs"
	"qlec/internal/sim"
)

// RunFunc executes one normalized, validated request and returns its
// result envelope. publish streams progress events (Seq is assigned by
// the hub, not the producer). Implementations must honour ctx — the
// server cancels it on DELETE and on hard shutdown.
type RunFunc func(ctx context.Context, req Request, publish func(Event)) (*ResultEnvelope, error)

// auditCtxKey carries the per-job flight recorder from the worker to
// Execute. A context key (rather than a Request field) keeps the
// recorder out of the job's serialized, content-addressed form, the
// same way the obs registry and trace recorder travel.
type auditCtxKey struct{}

func contextWithAudit(ctx context.Context, rec *audit.Recorder) context.Context {
	return context.WithValue(ctx, auditCtxKey{}, rec)
}

func auditFromContext(ctx context.Context) *audit.Recorder {
	rec, _ := ctx.Value(auditCtxKey{}).(*audit.Recorder)
	return rec
}

// Execute is the production RunFunc. It runs the two kinds that
// execute as one unit: KindOne, with per-round progress (the
// sim.Observer hook) wired into the event stream, and KindCell, one
// sweep cell. Sweep kinds never reach a RunFunc: the worker decomposes
// them into cells and runs those through the cell pool (DESIGN.md §14).
//
// When the context carries an obs registry/trace recorder (the qlecd
// worker installs both), KindOne rounds additionally feed live
// simulation gauges and per-round trace spans. Cells run with observers
// stripped, so round-level gauges are a KindOne feature by design —
// sweeps report at cell granularity.
func Execute(ctx context.Context, req Request, publish func(Event)) (*ResultEnvelope, error) {
	cfg := req.Config
	env := &ResultEnvelope{Kind: req.Kind}
	switch req.Kind {
	case KindOne:
		observer := func(snap sim.RoundSnapshot) {
			publish(Event{Type: EventRound, Round: &RoundProgress{
				Round:     snap.Round,
				Alive:     snap.Alive,
				Generated: snap.Stats.Generated,
				Delivered: snap.Stats.Delivered,
				EnergyJ:   float64(snap.EnergySoFar),
				Done:      snap.Done,
			}})
		}
		if reg := obs.MetricsFromContext(ctx); reg != nil {
			rec := obs.TraceFromContext(ctx)
			collector := obs.NewSimCollector(reg, string(req.Protocols[0]),
				cfg.InitialEnergy*energy.Joules(cfg.N), cfg.K)
			base := observer
			prev := time.Now()
			observer = func(snap sim.RoundSnapshot) {
				now := time.Now()
				collector.Observe(snap)
				rec.Span(fmt.Sprintf("round %d", snap.Round), "sim", prev, now,
					map[string]any{"alive": snap.Alive, "delivered": snap.Stats.Delivered})
				prev = now
				base(snap)
			}
		}
		cfg.Observer = observer
		cfg.Audit = auditFromContext(ctx)
		res, err := cfg.RunOne(ctx, req.Protocols[0], req.Lambda, req.Seed, req.Lifespan)
		if err != nil {
			return nil, err
		}
		env.One = res
	case KindCell:
		// One sweep cell: the replication pair exactly as the library's
		// sweeps run it (hooks are stripped by Normalize, matching the
		// harness's sweepOptions), so a cell executed here — possibly on
		// a different daemon — feeds the same Assemble step with the same
		// bytes.
		spec := experiment.CellSpec{
			Protocol: req.Protocols[0],
			Lambda:   req.Lambda,
			Seed:     req.Seed,
			Config:   cfg,
		}
		cell, err := spec.Run(ctx)
		if err != nil {
			return nil, err
		}
		env.Cell = &cell
	default:
		return nil, &badKindError{kind: req.Kind}
	}
	return env, nil
}

type badKindError struct{ kind JobKind }

func (e *badKindError) Error() string { return "service: unknown job kind " + string(e.kind) }
