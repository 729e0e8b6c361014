package obs

import (
	"fmt"
	"io"
	"strings"
)

// LintExposition is a promtool-style validity check for Prometheus text
// exposition output, used by tests and CI (no external binaries). The
// syntax is ParseExposition's: every sample line parses as
// `name[{labels}] value` after the one # TYPE line of its family,
// metric and label names match the Prometheus grammar, and TYPE is one
// of counter, gauge, histogram. Over the parsed families it then checks
// that:
//
//   - no series appears twice (same name and label set)
//   - every histogram bucket carries an le label
//   - histogram bucket counts are cumulative and the +Inf bucket equals
//     the family's _count sample
//
// It returns nil when the input is clean, or an error naming the first
// offence it finds.
func LintExposition(r io.Reader) error {
	return LintExpositions(r)
}

// LintExpositions lints several expositions as one logical scrape
// surface: each reader is checked like LintExposition, and family and
// series uniqueness is enforced across all of them. A process exposing
// two registries (say, a daemon's operational registry and a library's
// private one) must not let them both claim a metric name — Prometheus
// would see a duplicate family and reject the merged scrape.
func LintExpositions(rs ...io.Reader) error {
	owner := make(map[string]int) // family -> 1-based input that declared it
	seen := make(map[string]bool) // series keys across every input
	for i, r := range rs {
		in := func(err error) error {
			if len(rs) == 1 {
				return err
			}
			return fmt.Errorf("input %d: %w", i+1, err)
		}
		exp, err := ParseExposition(r)
		if err != nil {
			return in(err)
		}
		for _, f := range exp.Families {
			if f.Type == "" {
				continue // HELP without TYPE declares nothing
			}
			if prev, dup := owner[f.Name]; dup {
				return in(fmt.Errorf("family %q already declared by input %d", f.Name, prev))
			}
			owner[f.Name] = i + 1
			if err := lintFamily(f, seen); err != nil {
				return in(err)
			}
		}
	}
	return nil
}

// lintFamily checks one parsed family: no series it holds is in seen
// (which it extends), and a histogram's children (its series with le
// stripped) have le on every bucket, cumulative buckets, a +Inf bucket
// and a _count equal to it.
func lintFamily(f *MetricFamily, seen map[string]bool) error {
	type child struct {
		last, inf, count float64
		hasInf, hasCount bool
	}
	children := make(map[string]*child)
	var order []string
	for _, s := range f.Samples {
		key := s.Name + canonicalLabelKey(s.Labels)
		if seen[key] {
			return fmt.Errorf("duplicate series %s", key)
		}
		seen[key] = true

		suffix := strings.TrimPrefix(s.Name, f.Name)
		if f.Type != "histogram" || suffix == "" {
			continue
		}
		le, hasLe := "", false
		base := make([]Label, 0, len(s.Labels))
		for _, l := range s.Labels {
			if l.Name == "le" && suffix == "_bucket" {
				le, hasLe = l.Value, true
				continue
			}
			base = append(base, l)
		}
		ck := f.Name + canonicalLabelKey(base)
		c := children[ck]
		if c == nil {
			c = &child{}
			children[ck] = c
			order = append(order, ck)
		}
		switch suffix {
		case "_bucket":
			if !hasLe {
				return fmt.Errorf("histogram bucket %s without le label", key)
			}
			if s.Value < c.last {
				return fmt.Errorf("non-cumulative bucket in %s", ck)
			}
			c.last = s.Value
			if le == "+Inf" {
				c.inf, c.hasInf = s.Value, true
			}
		case "_count":
			c.count, c.hasCount = s.Value, true
		}
	}
	for _, ck := range order {
		c := children[ck]
		switch {
		case !c.hasInf:
			return fmt.Errorf("histogram %s missing +Inf bucket", ck)
		case !c.hasCount:
			return fmt.Errorf("histogram %s missing _count", ck)
		case c.inf != c.count:
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", ck, c.inf, c.count)
		}
	}
	return nil
}
