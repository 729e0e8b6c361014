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
	exp, err := ParseExposition(r)
	if err != nil {
		return err
	}
	for _, f := range exp.Families {
		if f.Type == "" {
			continue // HELP without TYPE declares nothing
		}
		if err := lintFamily(f); err != nil {
			return err
		}
	}
	return nil
}

// lintFamily checks one parsed family: no series it holds appears
// twice, and a histogram's children (its series with le stripped) have
// le on every bucket, cumulative buckets, a +Inf bucket and a _count
// equal to it.
func lintFamily(f *MetricFamily) error {
	type child struct {
		last, inf, count float64
		hasInf, hasCount bool
	}
	children := make(map[string]*child)
	var order []string
	seen := make(map[string]bool)
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
