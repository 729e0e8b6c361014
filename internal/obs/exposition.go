package obs

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Label is one exposition label pair; Value is the raw (unescaped)
// string.
type Label struct {
	Name  string
	Value string
}

// Sample is one series line of an exposition. For histograms Name
// carries the full sample name including the _bucket/_sum/_count suffix
// and Labels includes le.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Label returns the value of the named label, or "".
func (s Sample) Label(name string) string {
	for _, l := range s.Labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// MetricFamily is one # TYPE group of a parsed exposition.
type MetricFamily struct {
	Name    string
	Help    string
	Type    string // counter | gauge | histogram
	Samples []Sample
}

// Exposition is a fully parsed Prometheus text exposition.
type Exposition struct {
	Families []*MetricFamily
}

// Family returns the named family, or nil.
func (e *Exposition) Family(name string) *MetricFamily {
	for _, f := range e.Families {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// maxExpositionLine bounds one line of a parsed exposition.
const maxExpositionLine = 1 << 20

// histogramSuffixes are the sample-name suffixes a histogram family owns.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

var (
	expSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	expLabelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// ParseExposition parses a Prometheus text exposition into its family
// and sample structure, the way tests and the benchmark read a daemon's
// /metrics. It is the grammar LintExposition checks against: strict on syntax (one # TYPE
// line per family, and no family declared under a histogram's
// _bucket/_sum/_count names) but lenient on semantics (no duplicate-
// series or cumulative-bucket checking — that is LintExposition's job).
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{}
	byName := make(map[string]*MetricFamily)
	family := func(name string) *MetricFamily {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &MetricFamily{Name: name}
		byName[name] = f
		exp.Families = append(exp.Families, f)
		return f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxExpositionLine) // grows on demand from 4 KB
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) == 0 || !metricNameRe.MatchString(parts[0]) {
				return nil, fmt.Errorf("line %d: malformed HELP: %s", lineNo, line)
			}
			if len(parts) == 2 {
				family(parts[0]).Help = unescapeText(parts[1])
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %s", lineNo, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unknown TYPE %q", lineNo, parts[1])
			}
			name, typ := parts[0], parts[1]
			f := family(name)
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
			}
			// A histogram owns its child sample names, so no family may
			// be declared under one: its samples would be ambiguous.
			for _, s := range histogramSuffixes {
				if g := byName[name+s]; typ == "histogram" && g != nil && g.Type != "" {
					return nil, fmt.Errorf("line %d: histogram %q clashes with family %q", lineNo, name, g.Name)
				}
				if g := byName[strings.TrimSuffix(name, s)]; g != nil && g.Type == "histogram" {
					return nil, fmt.Errorf("line %d: family %q clashes with histogram %q", lineNo, name, g.Name)
				}
			}
			f.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}

		m := expSampleRe.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("line %d: unparseable sample: %s", lineNo, line)
		}
		name, labelBlock, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, valStr, err)
		}
		famName := name
		for _, s := range histogramSuffixes {
			base := strings.TrimSuffix(name, s)
			if base != name {
				if f, ok := byName[base]; ok && f.Type == "histogram" {
					famName = base
					break
				}
			}
		}
		f, ok := byName[famName]
		if !ok || f.Type == "" {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		var labels []Label
		if labelBlock != "" {
			for _, pair := range splitLabelPairs(labelBlock[1 : len(labelBlock)-1]) {
				lm := expLabelRe.FindStringSubmatch(pair)
				if lm == nil {
					return nil, fmt.Errorf("line %d: malformed label %q", lineNo, pair)
				}
				labels = append(labels, Label{Name: lm[1], Value: unescapeText(lm[2])})
			}
		}
		f.Samples = append(f.Samples, Sample{Name: name, Labels: labels, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return exp, nil
}

// canonicalLabelKey renders labels sorted by name into a stable series
// key.
func canonicalLabelKey(ls []Label) string {
	if len(ls) == 0 {
		return ""
	}
	sorted := append([]Label(nil), ls...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// splitLabelPairs splits the interior of a label block on commas that
// are not inside quoted values (values may contain escaped quotes).
func splitLabelPairs(s string) []string {
	var out []string
	var b strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		switch {
		case ch == '\\' && inQuote && i+1 < len(s):
			b.WriteByte(ch)
			i++
			b.WriteByte(s[i])
		case ch == '"':
			inQuote = !inQuote
			b.WriteByte(ch)
		case ch == ',' && !inQuote:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteByte(ch)
		}
	}
	if b.Len() > 0 {
		out = append(out, b.String())
	}
	return out
}

// unescapeText decodes a label value or HELP text in one pass: \n is a
// newline and a backslash before any other byte stands for that byte,
// so an escaped backslash followed by n stays a backslash and an n.
func unescapeText(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(v[i])
			}
			continue
		}
		b.WriteByte(v[i])
	}
	return b.String()
}
