// Package tables formats the experiment output: aligned text tables for
// the paper's Table 1 and Table 2, and an ASCII stacked-bar rendering of
// Figure 6 (fraction of total-possible consts that are declared,
// mono-inferred, poly-inferred, or other).
package tables

import (
	"fmt"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	header []string
	rows   [][]string
}

// New creates a table with the given column headers.
func New(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch c := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", c)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Right-align numbers, left-align first column.
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// StackedBar is one bar of a stacked percentage chart.
type StackedBar struct {
	Label string
	// Segments are fractions of the whole, in draw order; they should sum
	// to at most 1.
	Segments []float64
}

// Figure renders a horizontal stacked-percentage bar chart with the given
// segment names, reproducing the information content of the paper's
// Figure 6.
func Figure(title string, segmentNames []string, runes []rune, bars []StackedBar, width int) string {
	if width <= 0 {
		width = 60
	}
	var b strings.Builder
	b.WriteString(title + "\n")
	labelW := 0
	for _, bar := range bars {
		if len(bar.Label) > labelW {
			labelW = len(bar.Label)
		}
	}
	for _, bar := range bars {
		fmt.Fprintf(&b, "%-*s |", labelW, bar.Label)
		drawn := 0
		for i, frac := range bar.Segments {
			n := int(frac*float64(width) + 0.5)
			if drawn+n > width {
				n = width - drawn
			}
			r := '?'
			if i < len(runes) {
				r = runes[i]
			}
			b.WriteString(strings.Repeat(string(r), n))
			drawn += n
		}
		if drawn < width {
			b.WriteString(strings.Repeat(" ", width-drawn))
		}
		b.WriteString("|")
		for i, frac := range bar.Segments {
			name := "?"
			if i < len(segmentNames) {
				name = segmentNames[i]
			}
			fmt.Fprintf(&b, " %s=%4.1f%%", name, frac*100)
		}
		b.WriteString("\n")
	}
	b.WriteString(fmt.Sprintf("legend: "))
	for i, name := range segmentNames {
		if i > 0 {
			b.WriteString(", ")
		}
		r := '?'
		if i < len(runes) {
			r = runes[i]
		}
		fmt.Fprintf(&b, "%c = %s", r, name)
	}
	b.WriteString("\n")
	return b.String()
}
