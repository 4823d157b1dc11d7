package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a minimal aligned-text table for experiment reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Render produces the aligned text form.
func (t Table) Render() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteString("\n")
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteString("\n")
	}
	line(t.Header)
	total := -2
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func pct(v float64) string   { return fmt.Sprintf("%.2f%%", v*100) }
func f3(v float64) string    { return strconv.FormatFloat(v, 'f', 3, 64) }
func itoa(v int) string      { return strconv.Itoa(v) }
func itoa64(v uint64) string { return strconv.FormatUint(v, 10) }
