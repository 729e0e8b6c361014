package plot

import (
	"math"
	"strings"
	"testing"

	"qlec/internal/geom"
)

func sampleChart() *Chart {
	return &Chart{
		Title:  "Packet Delivery Rate",
		XLabel: "lambda",
		YLabel: "PDR",
		X:      []float64{1, 2, 4, 8},
		Series: []Series{
			{Name: "QLEC", Y: []float64{0.92, 0.97, 1.0, 1.0}},
			{Name: "k-means", Y: []float64{0.75, 0.85, 0.9, 0.93}},
		},
	}
}

func TestChartValidate(t *testing.T) {
	if err := sampleChart().Validate(); err != nil {
		t.Fatal(err)
	}
	c := sampleChart()
	c.Series[0].Y = c.Series[0].Y[:2]
	if err := c.Validate(); err == nil {
		t.Fatal("length mismatch validated")
	}
	c = sampleChart()
	c.X = nil
	if err := c.Validate(); err == nil {
		t.Fatal("empty x validated")
	}
	c = sampleChart()
	c.Series = nil
	if err := c.Validate(); err == nil {
		t.Fatal("no series validated")
	}
	c = sampleChart()
	c.Series[1].Y[0] = math.NaN()
	if err := c.Validate(); err == nil {
		t.Fatal("NaN point validated")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleChart().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv has %d lines: %q", len(lines), got)
	}
	if lines[0] != "lambda,QLEC,k-means" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "1,0.92,0.75" {
		t.Fatalf("row 1 = %q", lines[1])
	}
}

func TestCSVEscaping(t *testing.T) {
	c := sampleChart()
	c.Series[0].Name = `QLEC, "ours"`
	var sb strings.Builder
	if err := c.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"QLEC, ""ours"""`) {
		t.Fatalf("name not escaped: %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
}

func TestCSVDefaultXLabel(t *testing.T) {
	c := sampleChart()
	c.XLabel = ""
	var sb strings.Builder
	if err := c.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "x,") {
		t.Fatalf("default x header missing: %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
}

func TestRenderASCII(t *testing.T) {
	out, err := sampleChart().RenderASCII(60, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Packet Delivery Rate", "PDR", "lambda", "o=QLEC", "+=k-means"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Highest series value (1.0) must appear on the top data row, lowest
	// (0.75) near the bottom: check axis labels are ordered.
	if !strings.Contains(strings.SplitN(out, "\n", 4)[2], "1") {
		t.Fatalf("top axis label unexpected:\n%s", out)
	}
}

func TestRenderASCIITooSmall(t *testing.T) {
	if _, err := sampleChart().RenderASCII(5, 2); err == nil {
		t.Fatal("tiny canvas accepted")
	}
}

func TestRenderASCIIConstantSeries(t *testing.T) {
	c := &Chart{
		X:      []float64{1, 2, 3},
		Series: []Series{{Name: "flat", Y: []float64{2, 2, 2}}},
	}
	if _, err := c.RenderASCII(30, 6); err != nil {
		t.Fatalf("constant series failed: %v", err)
	}
	c.X = []float64{5, 5, 5}
	if _, err := c.RenderASCII(30, 6); err != nil {
		t.Fatalf("constant x failed: %v", err)
	}
}

func sampleHeatmap() *Heatmap {
	return &Heatmap{
		Title: "consumption",
		Box:   geom.Cube(100),
		Cols:  20, Rows: 10,
		Points: []geom.Vec3{{X: 10, Y: 10, Z: 50}, {X: 90, Y: 90, Z: 50}, {X: 50, Y: 50, Z: 10}},
		Values: []float64{0.1, 0.9, 0.5},
	}
}

func TestHeatmapValidate(t *testing.T) {
	if err := sampleHeatmap().Validate(); err != nil {
		t.Fatal(err)
	}
	h := sampleHeatmap()
	h.Values = h.Values[:1]
	if err := h.Validate(); err == nil {
		t.Fatal("mismatch validated")
	}
	h = sampleHeatmap()
	h.Cols = 0
	if err := h.Validate(); err == nil {
		t.Fatal("zero cols validated")
	}
	h = sampleHeatmap()
	h.Points = nil
	h.Values = nil
	if err := h.Validate(); err == nil {
		t.Fatal("empty heatmap validated")
	}
	h = sampleHeatmap()
	h.Values[0] = math.Inf(1)
	if err := h.Validate(); err == nil {
		t.Fatal("infinite value validated")
	}
}

func TestHeatmapRender(t *testing.T) {
	out, err := sampleHeatmap().RenderASCII()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + scale line + 10 rows.
	if len(lines) != 12 {
		t.Fatalf("render has %d lines:\n%s", len(lines), out)
	}
	// The hot point (0.9 at y=90) projects near the top (rows render
	// top-down); the cold point (0.1 at y=10) near the bottom.
	hotLine := -1
	for i, l := range lines[2:] {
		if strings.ContainsRune(l, '@') {
			hotLine = i
		}
	}
	if hotLine < 0 || hotLine >= 5 {
		t.Fatalf("hottest shade at row %d, want top half:\n%s", hotLine, out)
	}
}

// TestHeatmapConstantField: a constant field renders, and each filled
// cell draws the coldest shade, which is not the blank of an empty cell.
func TestHeatmapConstantField(t *testing.T) {
	h := sampleHeatmap()
	h.Values = []float64{0.5, 0.5, 0.5}
	out, err := h.RenderASCII()
	if err != nil {
		t.Fatalf("constant field failed: %v", err)
	}
	drawn := 0
	for _, l := range strings.Split(out, "\n")[2:] {
		drawn += len(strings.Trim(l, "|")) - strings.Count(l, " ")
	}
	if drawn != len(h.Points) {
		t.Fatalf("constant field draws %d cells, want %d:\n%s", drawn, len(h.Points), out)
	}
}

func TestHeatmapCSV(t *testing.T) {
	var sb strings.Builder
	if err := sampleHeatmap().WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "x,y,z,value" || len(lines) != 4 {
		t.Fatalf("csv = %q", sb.String())
	}
	if lines[1] != "10,10,50,0.1" {
		t.Fatalf("row = %q", lines[1])
	}
}

func sampleScatter() *Scatter {
	return &Scatter{
		Title: "network",
		Box:   geom.Cube(100),
		Cols:  30, Rows: 12,
		Categories: []ScatterCategory{
			{Name: "members", Marker: '.', Points: []geom.Vec3{{X: 10, Y: 10}, {X: 20, Y: 80}}},
			{Name: "heads", Marker: 'H', Points: []geom.Vec3{{X: 50, Y: 50, Z: 40}}},
			{Name: "BS", Marker: 'B', Points: []geom.Vec3{{X: 50, Y: 50, Z: 90}}},
		},
	}
}

func TestScatterRender(t *testing.T) {
	out, err := sampleScatter().RenderASCII()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"network", "B=BS(1)", "H=heads(1)", ".=members(2)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// BS drawn last wins the shared cell with the head.
	if !strings.ContainsRune(out, 'B') {
		t.Fatal("BS marker missing")
	}
	if strings.Count(out, "H") != 1 { // only the legend's "H=heads"; the grid cell is overwritten by the BS
		t.Fatalf("head marker overwrite wrong:\n%s", out)
	}
}

func TestScatterValidate(t *testing.T) {
	s := sampleScatter()
	s.Cols = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero cols accepted")
	}
	s = sampleScatter()
	s.Categories = nil
	if err := s.Validate(); err == nil {
		t.Fatal("no categories accepted")
	}
	s = sampleScatter()
	s.Categories[0].Marker = ' '
	if err := s.Validate(); err == nil {
		t.Fatal("blank marker accepted")
	}
	s = sampleScatter()
	s.Categories[0].Points = nil
	s.Categories[1].Points = nil
	s.Categories[2].Points = nil
	if err := s.Validate(); err == nil {
		t.Fatal("empty scatter accepted")
	}
	s = sampleScatter()
	s.Categories[0].Points[0].X = math.NaN()
	if err := s.Validate(); err == nil {
		t.Fatal("NaN point accepted")
	}
}

func TestScatterZSpread(t *testing.T) {
	s := sampleScatter()
	if got := s.ZSpread(); got != 90 {
		t.Fatalf("ZSpread = %v, want 90", got)
	}
}

func TestTable(t *testing.T) {
	out := Table(
		[]string{"protocol", "PDR"},
		[][]string{{"QLEC", "1.00"}, {"k-means", "0.85"}},
	)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "protocol") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[3], "k-means") || !strings.Contains(lines[3], "0.85") {
		t.Fatalf("row = %q", lines[3])
	}
	// Columns align: "PDR" starts at the same offset in every line.
	off := strings.Index(lines[0], "PDR")
	if strings.Index(lines[2], "1.00") != off {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableRaggedRows(t *testing.T) {
	out := Table([]string{"a", "b"}, [][]string{{"only"}})
	if !strings.Contains(out, "only") {
		t.Fatalf("ragged row lost: %s", out)
	}
}
