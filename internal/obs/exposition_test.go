package obs

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// TestParseExpositionRejectsRedeclaredNames: the format allows one
// # TYPE line per family, even when both lines agree, and a histogram's
// _bucket/_sum/_count names belong to it alone.
func TestParseExpositionRejectsRedeclaredNames(t *testing.T) {
	for _, in := range []string{
		"# TYPE foo counter\n# TYPE foo counter\nfoo 1\n",
		"# TYPE foo counter\nfoo 1\n# TYPE foo gauge\n",
		"# TYPE foo_bucket counter\nfoo_bucket 1\n# TYPE foo histogram\n",
		"# TYPE foo histogram\n# TYPE foo_count gauge\n",
	} {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("ParseExposition accepted a redeclared name:\n%s", in)
		}
	}
}

// TestParseExpositionUnescapesInOnePass: an escaped backslash followed
// by n is a backslash and an n, in HELP text as in label values.
func TestParseExpositionUnescapesInOnePass(t *testing.T) {
	in := "# HELP x a\\\\nb\\nc\n# TYPE x gauge\nx{l=\"a\\\\nb\\nc\"} 1\n"
	exp := parseExposition(t, in)
	f := exp.Family("x")
	if want := "a\\nb\nc"; f.Help != want || f.Samples[0].Label("l") != want {
		t.Fatalf("help %q, label %q; want %q for both", f.Help, f.Samples[0].Label("l"), want)
	}
}

// FuzzParseExposition: parsing never panics, and an accepted
// exposition written back by WriteExposition parses to the same
// families and samples. Families without samples are not written, so
// they are not compared; values compare by bits, so NaN equals NaN.
func FuzzParseExposition(f *testing.F) {
	f.Add(peerExpositionA)
	f.Add("# HELP up Liveness.\n# TYPE up gauge\nup{instance=\"a\\\"b\\\\c\\nd\"} NaN\n")
	f.Add("# TYPE foo counter\n# TYPE foo counter\nfoo 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		exp, err := ParseExposition(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteExposition(&out, exp); err != nil {
			t.Fatal(err)
		}
		back, err := ParseExposition(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("written exposition does not parse: %v\ninput:\n%q\nwritten:\n%q", err, in, out.String())
		}
		want, got := sampledFamilies(exp), sampledFamilies(back)
		if len(got) != len(want) {
			t.Fatalf("%d families after the round trip, want %d\ninput:\n%q\nwritten:\n%q", len(got), len(want), in, out.String())
		}
		for i := range want {
			if !sameFamily(want[i], got[i]) {
				t.Fatalf("family %d changed in the round trip: %+v -> %+v\ninput:\n%q\nwritten:\n%q", i, want[i], got[i], in, out.String())
			}
		}
	})
}

func sampledFamilies(e *Exposition) []*MetricFamily {
	var out []*MetricFamily
	for _, f := range e.Families {
		if len(f.Samples) > 0 {
			out = append(out, f)
		}
	}
	return out
}

func sameFamily(a, b *MetricFamily) bool {
	if a.Name != b.Name || a.Help != b.Help || a.Type != b.Type || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i, sa := range a.Samples {
		sb := b.Samples[i]
		if sa.Name != sb.Name || len(sa.Labels) != len(sb.Labels) ||
			math.Float64bits(sa.Value) != math.Float64bits(sb.Value) {
			return false
		}
		for j := range sa.Labels {
			if sa.Labels[j] != sb.Labels[j] {
				return false
			}
		}
	}
	return true
}

// WriteExposition renders a parsed exposition back to text for
// FuzzParseExposition's round trip. Families are written in their
// stored order with HELP/TYPE headers; samples keep their stored order,
// labels their stored order.
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
