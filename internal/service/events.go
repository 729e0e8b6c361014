package service

import "sync"

// maxHubHistory bounds the per-job event replay buffer. A 3000-round
// lifespan run emits one round event per round; beyond the cap the
// oldest events age out and late subscribers see a gap (SSE progress is
// advisory — the authoritative record is the job and its result).
const maxHubHistory = 4096

// maxFinishedRecords bounds the finished jobs and batches the server
// keeps in memory, with their event history (FIFO by finish, like the
// trace store). A finished hub holds at most maxHubHistory events, so
// the worst case is 256 × 4,096 events. An older record is read back
// from the journal and streams only its terminal state, as a cache hit
// does; without a data dir it is gone. Sized like maxCachedEnvelopes.
const maxFinishedRecords = 256

// subChanBuf is each subscriber's channel depth; a subscriber that lags
// further behind loses its oldest buffered events, never the stream's
// liveness.
const subChanBuf = 128

// eventHub is one job's progress fan-out: it assigns sequence numbers,
// keeps a bounded replay history and broadcasts to any number of SSE
// subscribers without ever blocking the publishing worker.
type eventHub struct {
	mu      sync.Mutex
	history []Event
	nextSeq int
	subs    map[chan Event]struct{}
	closed  bool
}

func newEventHub() *eventHub {
	return &eventHub{nextSeq: 1, subs: make(map[chan Event]struct{})}
}

// publish stamps the event with the next sequence number, records it
// and fans it out. Slow subscribers lose their oldest pending event
// rather than stall the worker.
func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	e.Seq = h.nextSeq
	h.nextSeq++
	h.history = append(h.history, e)
	if len(h.history) > maxHubHistory {
		h.history = h.history[len(h.history)-maxHubHistory:]
	}
	for ch := range h.subs {
		select {
		case ch <- e:
		default:
			select {
			case <-ch: // shed the oldest pending event
			default:
			}
			select {
			case ch <- e:
			default:
			}
		}
	}
}

// subscribe returns the replay of events with Seq > afterSeq plus a
// live channel. The channel closes when the hub closes (job reached a
// terminal state, or the server shut down); call cancel to unsubscribe
// earlier.
func (h *eventHub) subscribe(afterSeq int) (replay []Event, live <-chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, e := range h.history {
		if e.Seq > afterSeq {
			replay = append(replay, e)
		}
	}
	ch := make(chan Event, subChanBuf)
	if h.closed {
		close(ch)
		return replay, ch, func() {}
	}
	h.subs[ch] = struct{}{}
	cancel = func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[ch]; ok {
			delete(h.subs, ch)
			close(ch)
		}
	}
	return replay, ch, cancel
}

// close ends the stream: subscribers' channels close after any pending
// events drain, and further publishes are dropped.
func (h *eventHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
}
