package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"
)

// table accumulates rows and renders a fixed-width ASCII table in the
// layout of the paper's tables.
type table struct {
	title   string
	headers []string
	rows    [][]string
}

// newTable creates a table with the given title and column headers.
func newTable(title string, headers ...string) *table {
	return &table{title: title, headers: headers}
}

// addRow appends a row; cells are formatted with %v.
func (t *table) addRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// render writes the table to w.
func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		b.WriteString("|")
		for i := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		return b.String()
	}
	sep := "+"
	for _, wd := range widths {
		sep += strings.Repeat("-", wd+2) + "+"
	}
	if t.title != "" {
		fmt.Fprintf(w, "%s\n", t.title)
	}
	fmt.Fprintln(w, sep)
	fmt.Fprintln(w, line(t.headers))
	fmt.Fprintln(w, sep)
	for _, r := range t.rows {
		fmt.Fprintln(w, line(r))
	}
	fmt.Fprintln(w, sep)
}
