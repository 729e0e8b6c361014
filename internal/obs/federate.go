package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type for the text format this
// package reads and writes, exported for the federation endpoint.
const ExpositionContentType = expositionContentType

// InstanceLabel is the label federation adds to per-instance series.
const InstanceLabel = "instance"

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
	fedSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (.+)$`)
	fedLabelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// ParseExposition parses a Prometheus text exposition into its family
// and sample structure. It is the read half of federation and the
// grammar LintExposition checks against: strict on syntax (one # TYPE
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

		m := fedSampleRe.FindStringSubmatch(line)
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
				lm := fedLabelRe.FindStringSubmatch(pair)
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

// Instance pairs a peer's name with its parsed exposition for merging.
type Instance struct {
	Name string
	Exp  *Exposition
}

// MergeExpositions federates the expositions of several instances into
// one, per the fleet merge rules (DESIGN.md §15):
//
//   - counters are summed across instances (same series → one series)
//   - histograms are summed bucket-by-bucket; since every qlecd runs the
//     same binary the bucket bounds agree, and summing per-instance
//     cumulative counts keeps the result cumulative (LintExposition on
//     the merged output is the backstop if they ever diverge)
//   - gauges are emitted per-instance with an added `instance` label; a
//     gauge that already carries one (e.g. a synthetic peer-up series
//     built by the federation handler) passes through unchanged
//
// A metric registered with different TYPEs on different instances is a
// hard error — the duplicate would poison the whole scrape surface.
func MergeExpositions(instances []Instance) (*Exposition, error) {
	out := &Exposition{}
	byName := make(map[string]*MetricFamily)
	sums := make(map[string]map[string]*mergedSample) // family -> series key -> sum

	for _, inst := range instances {
		if inst.Exp == nil {
			continue
		}
		for _, f := range inst.Exp.Families {
			mf, ok := byName[f.Name]
			if !ok {
				mf = &MetricFamily{Name: f.Name, Help: f.Help, Type: f.Type}
				byName[f.Name] = mf
				out.Families = append(out.Families, mf)
			}
			if mf.Type != f.Type {
				return nil, fmt.Errorf("metric %q: TYPE %s on instance %q conflicts with earlier TYPE %s",
					f.Name, f.Type, inst.Name, mf.Type)
			}
			switch f.Type {
			case "gauge":
				for _, s := range f.Samples {
					ls := s.Labels
					if s.Label(InstanceLabel) == "" {
						ls = append(append([]Label(nil), ls...), Label{InstanceLabel, inst.Name})
					}
					mf.Samples = append(mf.Samples, Sample{Name: s.Name, Labels: ls, Value: s.Value})
				}
			default: // counter, histogram: sum identical series
				fam := sums[f.Name]
				if fam == nil {
					fam = make(map[string]*mergedSample)
					sums[f.Name] = fam
				}
				for _, s := range f.Samples {
					k := s.Name + canonicalLabelKey(s.Labels)
					if a, ok := fam[k]; ok {
						a.sample.Value += s.Value
					} else {
						cp := s
						cp.Labels = append([]Label(nil), s.Labels...)
						fam[k] = &mergedSample{sample: cp, key: k}
					}
				}
			}
		}
	}

	for _, mf := range out.Families {
		if fam, ok := sums[mf.Name]; ok {
			accs := make([]*mergedSample, 0, len(fam))
			for _, a := range fam {
				accs = append(accs, a)
			}
			if mf.Type == "histogram" {
				sortHistogramAccs(accs)
			} else {
				sort.Slice(accs, func(i, j int) bool { return accs[i].key < accs[j].key })
			}
			for _, a := range accs {
				mf.Samples = append(mf.Samples, a.sample)
			}
		} else if mf.Type == "gauge" {
			ss := mf.Samples
			sort.SliceStable(ss, func(i, j int) bool {
				if ss[i].Name != ss[j].Name {
					return ss[i].Name < ss[j].Name
				}
				return canonicalLabelKey(ss[i].Labels) < canonicalLabelKey(ss[j].Labels)
			})
		}
	}
	sort.SliceStable(out.Families, func(i, j int) bool { return out.Families[i].Name < out.Families[j].Name })
	return out, nil
}

// mergedSample accumulates one summed series during federation.
type mergedSample struct {
	sample Sample
	key    string
}

// sortHistogramAccs orders one histogram family's summed samples into
// lintable exposition order: children grouped by base labels (le
// stripped), buckets ascending by le with +Inf last, then _sum, _count.
func sortHistogramAccs(accs []*mergedSample) {
	rank := func(name string) int {
		switch {
		case strings.HasSuffix(name, "_bucket"):
			return 0
		case strings.HasSuffix(name, "_sum"):
			return 1
		default:
			return 2
		}
	}
	baseKey := func(ls []Label) string {
		kept := make([]Label, 0, len(ls))
		for _, l := range ls {
			if l.Name != "le" {
				kept = append(kept, l)
			}
		}
		return canonicalLabelKey(kept)
	}
	leVal := func(ls []Label) float64 {
		for _, l := range ls {
			if l.Name == "le" {
				v, err := strconv.ParseFloat(l.Value, 64)
				if err != nil {
					return math.Inf(1)
				}
				return v
			}
		}
		return math.Inf(1)
	}
	sort.SliceStable(accs, func(i, j int) bool {
		si, sj := accs[i].sample, accs[j].sample
		bi, bj := baseKey(si.Labels), baseKey(sj.Labels)
		if bi != bj {
			return bi < bj
		}
		ri, rj := rank(si.Name), rank(sj.Name)
		if ri != rj {
			return ri < rj
		}
		if ri == 0 {
			li, lj := leVal(si.Labels), leVal(sj.Labels)
			if li != lj {
				return li < lj
			}
		}
		return accs[i].key < accs[j].key
	})
}

// WriteExposition renders a parsed (or merged) exposition back to text.
// Families are written in their stored order with HELP/TYPE headers;
// samples keep their stored order, labels their stored order.
func WriteExposition(w io.Writer, e *Exposition) error {
	bw := bufio.NewWriter(w)
	for _, f := range e.Families {
		if len(f.Samples) == 0 {
			continue
		}
		bw.WriteString("# HELP ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(escapeHelp(f.Help))
		bw.WriteByte('\n')
		bw.WriteString("# TYPE ")
		bw.WriteString(f.Name)
		bw.WriteByte(' ')
		bw.WriteString(f.Type)
		bw.WriteByte('\n')
		for _, s := range f.Samples {
			bw.WriteString(s.Name)
			if len(s.Labels) > 0 {
				bw.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						bw.WriteByte(',')
					}
					bw.WriteString(l.Name)
					bw.WriteString(`="`)
					bw.WriteString(escapeLabelValue(l.Value))
					bw.WriteByte('"')
				}
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(formatFloat(s.Value))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// canonicalLabelKey renders labels sorted by name into a stable series
// key (and the exact label block WriteExposition would emit for them
// once sorted).
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
