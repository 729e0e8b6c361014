package service

import (
	"context"
	"runtime/pprof"

	"qlec/internal/experiment"
	"qlec/internal/obs"
)

// RunFunc executes one normalized, validated request and returns its
// result envelope. h carries the run's hooks: the worker passes a
// KindOne job's round observer (progress events, live gauges, round
// spans), an audit replay its recorder, and a cell none.
// Implementations must honour ctx — the server cancels it on DELETE and
// on hard shutdown.
type RunFunc func(ctx context.Context, req Request, h experiment.Hooks) (*ResultEnvelope, error)

// Execute is the production RunFunc. It runs the two kinds that
// execute as one unit: KindOne, with h installed on the run, and
// KindCell, one sweep cell, which takes no hooks (sweeps report at cell
// granularity). Sweep kinds never reach a RunFunc: the worker
// decomposes them into cells and runs those through the cell pool
// (DESIGN.md §14).
func Execute(ctx context.Context, req Request, h experiment.Hooks) (*ResultEnvelope, error) {
	cfg := req.Config
	env := &ResultEnvelope{Kind: req.Kind}
	switch req.Kind {
	case KindOne:
		res, err := cfg.RunOneWith(ctx, req.Protocols[0], req.Lambda, req.Seed, req.Lifespan, h)
		if err != nil {
			return nil, err
		}
		env.One = res
	case KindCell:
		// One sweep cell: the replication pair exactly as the library's
		// sweeps run it, so a cell executed here — possibly on a
		// different daemon — feeds the same Assemble step with the same
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

// run calls Options.Run under CPU-profile labels, so a profile read
// from the -pprof endpoint splits by what ran (DESIGN.md §16): kind is
// "cell" for a pooled sweep cell, "audit" for a replay and the request
// kind for a direct run; protocol is protocolLabel(req); trace is the
// job's trace ID when ctx carries one. Goroutines the run starts
// inherit the labels.
func (s *Server) run(ctx context.Context, kind string, req Request, h experiment.Hooks) (env *ResultEnvelope, err error) {
	labels := []string{"kind", kind, "protocol", protocolLabel(req)}
	if trace := obs.SpanFromContext(ctx).TraceID; trace != "" {
		labels = append(labels, "trace", trace)
	}
	pprof.Do(ctx, pprof.Labels(labels...), func(ctx context.Context) {
		env, err = s.opt.Run(ctx, req, h)
	})
	return env, err
}

type badKindError struct{ kind JobKind }

func (e *badKindError) Error() string { return "service: unknown job kind " + string(e.kind) }
