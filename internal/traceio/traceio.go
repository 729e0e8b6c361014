// Package traceio parses and aggregates the simulator's JSONL packet
// traces (sim.JSONLTracer) into operational statistics: per-packet
// lifecycles, retry distributions, per-head load, per-round tallies.
// `qlecaudit trace` is the command-line front end.
package traceio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"qlec/internal/packet"
	"qlec/internal/sim"
	"qlec/internal/stats"
)

// ParseJSONL reads one trace event per line. Blank lines are skipped;
// malformed lines are errors (a trace is machine-written), and so is a
// line that is not exactly one JSON object (see decodeLine).
func ParseJSONL(r io.Reader) ([]sim.TraceEvent, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []sim.TraceEvent
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev sim.TraceEvent
		if err := decodeLine(raw, &ev, false); err != nil {
			return nil, fmt.Errorf("traceio: line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: reading: %w", err)
	}
	return out, nil
}

// RoundTally is one round's packet accounting.
type RoundTally struct {
	Round     int
	Generated int
	Delivered int
	Dropped   int
}

// Stats aggregates a trace.
type Stats struct {
	Events int
	ByKind map[sim.TraceKind]int

	Generated int
	Delivered int
	Dropped   int
	// DropReasons tallies drop events by reason string.
	DropReasons map[string]int

	// AttemptsPerPacket summarizes radio sends per generated packet
	// (retries inflate it).
	AttemptsPerPacket stats.Summary
	// AccessDelay summarizes generate→first-accept latency in seconds.
	AccessDelay stats.Summary
	// HeadLoad counts accepted packets per target node (the base
	// station appears as network.BSID = −1).
	HeadLoad map[int]int
	// Rounds tallies per-round packet accounting, ascending by round.
	Rounds []RoundTally
}

// Analyze aggregates events into Stats. Events may arrive in any order;
// per-packet lifecycles are reconstructed by packet id.
func Analyze(events []sim.TraceEvent) (*Stats, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("traceio: empty trace")
	}
	s := &Stats{
		ByKind:      map[sim.TraceKind]int{},
		DropReasons: map[string]int{},
		HeadLoad:    map[int]int{},
	}
	type life struct {
		bornAt      float64
		born        bool
		sends       int
		firstAccept float64
		accepted    bool
	}
	lives := map[packet.ID]*life{}
	rounds := map[int]*RoundTally{}
	tally := func(round int) *RoundTally {
		rt, ok := rounds[round]
		if !ok {
			rt = &RoundTally{Round: round}
			rounds[round] = rt
		}
		return rt
	}
	get := func(id packet.ID) *life {
		l, ok := lives[id]
		if !ok {
			l = &life{}
			lives[id] = l
		}
		return l
	}
	for _, ev := range events {
		s.Events++
		s.ByKind[ev.Kind]++
		switch ev.Kind {
		case sim.TraceGenerate:
			s.Generated++
			tally(ev.Round).Generated++
			l := get(ev.Packet)
			l.bornAt = ev.Time
			l.born = true
		case sim.TraceSend:
			get(ev.Packet).sends++
		case sim.TraceAccept:
			l := get(ev.Packet)
			if !l.accepted {
				l.accepted = true
				l.firstAccept = ev.Time
			}
			s.HeadLoad[ev.Target]++
		case sim.TraceDeliver:
			s.Delivered++
			tally(ev.Round).Delivered++
		case sim.TraceDrop:
			s.Dropped++
			tally(ev.Round).Dropped++
			s.DropReasons[ev.Reason]++
		}
	}
	var attempts, delays stats.Accumulator
	for _, l := range lives {
		if !l.born {
			continue // relayed fragments observed mid-flight
		}
		attempts.Observe(float64(l.sends))
		if l.accepted {
			delays.Observe(l.firstAccept - l.bornAt)
		}
	}
	s.AttemptsPerPacket = attempts.Summary()
	s.AccessDelay = delays.Summary()
	for _, rt := range rounds {
		s.Rounds = append(s.Rounds, *rt)
	}
	sort.Slice(s.Rounds, func(i, j int) bool { return s.Rounds[i].Round < s.Rounds[j].Round })
	return s, nil
}

// TopLoads returns the n busiest accept targets as (node, count) pairs,
// descending by count with ascending node tie-break.
func (s *Stats) TopLoads(n int) [][2]int {
	type kv struct{ node, count int }
	var all []kv
	for node, count := range s.HeadLoad {
		all = append(all, kv{node, count})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].node < all[j].node
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([][2]int, n)
	for i := 0; i < n; i++ {
		out[i] = [2]int{all[i].node, all[i].count}
	}
	return out
}

// Filter returns the events matching a node and/or round restriction.
// node ≥ 0 keeps events where that node is the actor or the target (so
// both halves of a send/accept pair survive); round ≥ 0 keeps one
// round. Negative values disable the corresponding restriction.
func Filter(events []sim.TraceEvent, node, round int) []sim.TraceEvent {
	if node < 0 && round < 0 {
		return events
	}
	var out []sim.TraceEvent
	for _, ev := range events {
		if node >= 0 && ev.Node != node && ev.Target != node {
			continue
		}
		if round >= 0 && ev.Round != round {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// WriteLedgerJSONL writes audit energy-ledger entries one JSON object
// per line — the same stream format audit.Options.Spill receives, so a
// spill file and a written ledger are interchangeable inputs to
// ParseLedgerJSONL.
func WriteLedgerJSONL(w io.Writer, entries []sim.EnergyEntry) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range entries {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("traceio: ledger entry %d: %w", i, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("traceio: flushing ledger: %w", err)
	}
	return nil
}

// ParseLedgerJSONL reads one energy-ledger entry per line (the format
// of WriteLedgerJSONL and of audit spill files). Blank lines are
// skipped; malformed lines are errors with their line number — the
// stream is machine-written, so corruption means truncation or a mixed
// stream, not user input. A line must be exactly one JSON object, and
// unknown fields are rejected so a packet-trace line interleaved into a
// ledger stream fails loudly instead of parsing as a zero-valued entry.
func ParseLedgerJSONL(r io.Reader) ([]sim.EnergyEntry, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []sim.EnergyEntry
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e sim.EnergyEntry
		if err := decodeLine(raw, &e, true); err != nil {
			return nil, fmt.Errorf("traceio: ledger line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceio: reading ledger: %w", err)
	}
	return out, nil
}

// decodeLine decodes raw, one line of a JSONL stream, into the record v.
// The line must hold exactly one JSON object: a second value or any
// other trailing data is an error, and so is any other value, null
// included, which json would decode into v as a no-op, leaving a
// zero-valued record. strict rejects fields v does not have.
func decodeLine(raw []byte, v any, strict bool) error {
	if body := bytes.TrimLeft(raw, jsonSpace); len(body) == 0 || body[0] != '{' {
		return fmt.Errorf("want a JSON object, got %.20q", raw)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(raw[dec.InputOffset():], jsonSpace); len(rest) > 0 {
		return fmt.Errorf("trailing data after the JSON object: %.20q", rest)
	}
	return nil
}

// jsonSpace is the whitespace JSON allows between tokens.
const jsonSpace = " \t\r\n"
