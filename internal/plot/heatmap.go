package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"qlec/internal/geom"
)

// Heatmap renders a scalar field sampled at 3-D points as a 2-D grid by
// projecting onto the XY plane and averaging over Z — the view used for
// Figure 4's energy-consumption-rate map.
type Heatmap struct {
	Title string
	// Box bounds the projection. Points outside are clamped to edge cells.
	Box geom.AABB
	// Cols and Rows set the raster resolution.
	Cols, Rows int

	Points []geom.Vec3
	Values []float64
}

// shades orders filled cells from cold to hot. It holds no space: an
// empty cell is a space, so the coldest filled cell must differ.
const shades = ".:-=+*#%@"

// Validate checks structural consistency.
func (h *Heatmap) Validate() error {
	if h.Cols < 1 || h.Rows < 1 {
		return fmt.Errorf("plot: heatmap raster %dx%d invalid", h.Cols, h.Rows)
	}
	if len(h.Points) == 0 {
		return fmt.Errorf("plot: heatmap has no points")
	}
	if len(h.Points) != len(h.Values) {
		return fmt.Errorf("plot: heatmap has %d points but %d values", len(h.Points), len(h.Values))
	}
	if err := h.Box.Validate(); err != nil {
		return err
	}
	for i, v := range h.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("plot: heatmap value %d not finite: %v", i, v)
		}
	}
	return nil
}

// cellMeans rasterizes values into the grid, returning per-cell means and
// a presence mask.
func (h *Heatmap) cellMeans() (means []float64, filled []bool) {
	sums := make([]float64, h.Cols*h.Rows)
	counts := make([]int, h.Cols*h.Rows)
	size := h.Box.Size()
	for i, p := range h.Points {
		cx := clampIdx(int(float64(h.Cols)*(p.X-h.Box.Min.X)/size.X), h.Cols)
		// Rows render top-down; row 0 is max Y.
		cy := clampIdx(int(float64(h.Rows)*(h.Box.Max.Y-p.Y)/size.Y), h.Rows)
		c := cy*h.Cols + cx
		sums[c] += h.Values[i]
		counts[c]++
	}
	means = make([]float64, len(sums))
	filled = make([]bool, len(sums))
	for c := range sums {
		if counts[c] > 0 {
			means[c] = sums[c] / float64(counts[c])
			filled[c] = true
		}
	}
	return means, filled
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// RenderASCII draws the projected field with intensity shading normalized
// to the observed value range.
func (h *Heatmap) RenderASCII() (string, error) {
	if err := h.Validate(); err != nil {
		return "", err
	}
	means, filled := h.cellMeans()
	lo, hi := math.Inf(1), math.Inf(-1)
	for c, ok := range filled {
		if ok {
			lo = math.Min(lo, means[c])
			hi = math.Max(hi, means[c])
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	fmt.Fprintf(&b, "value range [%.4g, %.4g], shading %q cold→hot, XY projection\n", lo, hi, shades)
	for r := 0; r < h.Rows; r++ {
		b.WriteByte('|')
		for c := 0; c < h.Cols; c++ {
			cell := r*h.Cols + c
			if !filled[cell] {
				b.WriteByte(' ')
				continue
			}
			idx := int(float64(len(shades)-1) * (means[cell] - lo) / (hi - lo))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteByte(shades[idx])
		}
		b.WriteString("|\n")
	}
	return b.String(), nil
}

// WriteCSV emits one row per sample: x,y,z,value. Downstream tools can
// re-plot the genuine 3-D scatter the paper shows.
func (h *Heatmap) WriteCSV(w io.Writer) error {
	if err := h.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("x,y,z,value\n")
	for i, p := range h.Points {
		fmt.Fprintf(&b, "%s,%s,%s,%s\n",
			formatFloat(p.X), formatFloat(p.Y), formatFloat(p.Z), formatFloat(h.Values[i]))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Table renders rows of labeled values as an aligned text table — used by
// the benchmark harness to print paper-style result tables.
func Table(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, hdr := range headers {
		widths[i] = len(hdr)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			if i == len(widths)-1 {
				// No padding on the last column: keep lines free of
				// trailing whitespace.
				b.WriteString(cell)
			} else {
				fmt.Fprintf(&b, "%-*s", w, cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}
