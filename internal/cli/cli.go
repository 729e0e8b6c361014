// Package cli holds the small amount of plumbing the command-line
// tools share: a signal-aware root context with an optional deadline,
// and a throttled single-line stderr progress meter. It exists so that
// every tool gets identical Ctrl-C semantics — first SIGINT cancels
// the run (tools then print whatever partial results they hold),
// second SIGINT exits immediately.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Context returns the root context for a command-line run. A positive
// timeout arms a deadline. The first SIGINT/SIGTERM cancels the
// context and prints a note that a second one force-quits; a second
// signal exits with status 130 without waiting for cleanup.
//
// The returned stop function releases the signal handler; defer it
// from main.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx := context.Background()
	var cancelTimeout context.CancelFunc = func() {}
	if timeout > 0 {
		ctx, cancelTimeout = context.WithTimeout(ctx, timeout)
	}
	ctx, cancel := context.WithCancel(ctx)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
			fmt.Fprintln(os.Stderr, "\ninterrupted; finishing current round (interrupt again to quit now)")
			cancel()
		case <-ctx.Done():
			return
		}
		<-sigs
		fmt.Fprintln(os.Stderr, "killed")
		os.Exit(130)
	}()

	stop := func() {
		signal.Stop(sigs)
		cancel()
		cancelTimeout()
	}
	return ctx, stop
}

// Meter is a throttled single-line progress display. Writes rewrite
// the same terminal line (carriage return, no newline) at most once
// per interval, plus always the final update; Close erases the line.
// Safe for concurrent use — sweep progress callbacks fire from worker
// goroutines.
type Meter struct {
	mu    sync.Mutex
	w     io.Writer
	last  time.Time
	every time.Duration
	width int
	done  bool
}

// NewMeter writes progress to w (normally os.Stderr) at most every
// 100 ms.
func NewMeter(w io.Writer) *Meter {
	return &Meter{w: w, every: 100 * time.Millisecond}
}

// Printf rewrites the meter line. Calls landing inside the throttle
// window are dropped unless force is set (use force for the final
// update so the display always ends accurate).
func (m *Meter) Printf(force bool, format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return
	}
	now := time.Now()
	if !force && now.Sub(m.last) < m.every {
		return
	}
	m.last = now
	line := fmt.Sprintf(format, args...)
	pad := m.width - len(line)
	if pad < 0 {
		pad = 0
	}
	m.width = len(line)
	fmt.Fprintf(m.w, "\r%s%*s", line, pad, "")
}

// Close erases the progress line so subsequent output starts clean.
func (m *Meter) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.done {
		return
	}
	m.done = true
	if m.width > 0 {
		fmt.Fprintf(m.w, "\r%*s\r", m.width, "")
	}
}

// SweepProgress returns a progress callback that drives the meter with
// a "label done/total" line. Pass it to experiment Config.Progress or
// runner.Options.Progress.
func (m *Meter) SweepProgress(label string) func(done, total int) {
	return func(done, total int) {
		m.Printf(done == total, "%s %d/%d", label, done, total)
	}
}

// Reader wraps r so each Read first checks ctx: once the context is
// cancelled the next Read returns ctx.Err(). It lets tools that read
// from a file or pipe (e.g. qlecfig's -data) honour Ctrl-C and
// -timeout between reads even when the producer stalls mid-stream.
func Reader(ctx context.Context, r io.Reader) io.Reader {
	return &ctxReader{ctx: ctx, r: r}
}

type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
