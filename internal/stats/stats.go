package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is a figure: one X axis and one or more named lines.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	lines  []line
}

type line struct {
	name string
	y    []float64
}

// AddLine appends a named line; y must have len(s.X) points.
func (s *Series) AddLine(name string, y []float64) {
	if len(y) != len(s.X) {
		panic(fmt.Sprintf("stats: line %q has %d points, X has %d", name, len(y), len(s.X)))
	}
	s.lines = append(s.lines, line{name, append([]float64(nil), y...)})
}

// Lines returns the line names in insertion order.
func (s *Series) Lines() []string {
	names := make([]string, len(s.lines))
	for i, l := range s.lines {
		names[i] = l.name
	}
	return names
}

// Y returns the values of the named line, or nil.
func (s *Series) Y(name string) []float64 {
	for _, l := range s.lines {
		if l.name == name {
			return l.y
		}
	}
	return nil
}

// CSV renders the series as comma-separated values with a header row.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(s.XLabel))
	for _, l := range s.lines {
		b.WriteByte(',')
		b.WriteString(csvEscape(l.name))
	}
	b.WriteByte('\n')
	for i := range s.X {
		fmt.Fprintf(&b, "%g", s.X[i])
		for _, l := range s.lines {
			fmt.Fprintf(&b, ",%g", l.y[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// TableString renders the series as an aligned text table.
func (s *Series) TableString() string {
	cols := make([][]string, 1+len(s.lines))
	cols[0] = append([]string{s.XLabel}, formatCol(s.X)...)
	for i, l := range s.lines {
		cols[i+1] = append([]string{l.name}, formatCol(l.y)...)
	}
	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	widths := make([]int, len(cols))
	for i, c := range cols {
		for _, cell := range c {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for r := 0; r <= len(s.X); r++ {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c[r])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCol(v []float64) []string {
	out := make([]string, len(v))
	for i, x := range v {
		out[i] = FormatFloat(x)
	}
	return out
}

// FormatFloat renders a value compactly: integers without decimals,
// large numbers with thousands grouping, small ones with 3 significant
// decimals.
func FormatFloat(x float64) string {
	ax := math.Abs(x)
	switch {
	case x == math.Trunc(x) && ax < 1e15:
		return groupThousands(fmt.Sprintf("%.0f", x))
	case ax >= 1000:
		return groupThousands(fmt.Sprintf("%.0f", x))
	case ax >= 1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

func groupThousands(s string) string {
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}

// Chart renders the series as an ASCII line chart of the given size.
// Each line uses its own marker; a legend follows the plot.
func (s *Series) Chart(width, height int) string {
	if width < 20 {
		width = 20
	}
	if height < 8 {
		height = 8
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}

	xmin, xmax := minMax(s.X)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, l := range s.lines {
		lo, hi := minMax(l.y)
		ymin, ymax = math.Min(ymin, lo), math.Max(ymax, hi)
	}
	if ymin > 0 {
		ymin = 0 // figures in the paper anchor at zero
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for li, l := range s.lines {
		m := markers[li%len(markers)]
		for i := range s.X {
			c := int(math.Round((s.X[i] - xmin) / (xmax - xmin) * float64(width-1)))
			r := height - 1 - int(math.Round((l.y[i]-ymin)/(ymax-ymin)*float64(height-1)))
			if r >= 0 && r < height && c >= 0 && c < width {
				grid[r][c] = m
			}
		}
	}

	var b strings.Builder
	if s.Title != "" {
		fmt.Fprintf(&b, "%s\n", s.Title)
	}
	yTop, yBot := FormatFloat(ymax), FormatFloat(ymin)
	lw := len(yTop)
	if len(yBot) > lw {
		lw = len(yBot)
	}
	for r := range grid {
		label := strings.Repeat(" ", lw)
		switch r {
		case 0:
			label = fmt.Sprintf("%*s", lw, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", lw, yBot)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, grid[r])
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", lw), strings.Repeat("-", width))
	fmt.Fprintf(&b, "%s  %-*s%s\n", strings.Repeat(" ", lw), width-len(FormatFloat(xmax)), FormatFloat(xmin), FormatFloat(xmax))
	fmt.Fprintf(&b, "%s  (%s vs %s)\n", strings.Repeat(" ", lw), s.YLabel, s.XLabel)
	for li, l := range s.lines {
		fmt.Fprintf(&b, "  %c %s\n", markers[li%len(markers)], l.name)
	}
	return b.String()
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// Table is a titled text table (for Table 1-style output).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row; it must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("stats: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Mean returns the arithmetic mean of v (0 for empty input).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// Percentile returns the p-th percentile (0..100) of v using
// nearest-rank on a sorted copy.
func Percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	idx := int(math.Ceil(p/100*float64(len(c)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c) {
		idx = len(c) - 1
	}
	return c[idx]
}
