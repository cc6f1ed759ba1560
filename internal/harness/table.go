// Package harness turns the paper's evaluation into reproducible
// experiments: each experiment ID (E1..E10, catalogued in Experiments
// in registry.go and listed by `permbench -list`) is a function from a
// Config to a text Table that mirrors the rows the paper reports.
// cmd/permbench is the CLI front end; bench_test.go wires the same
// workloads into testing.B.
package harness

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a title, aligned columns, and
// free-form notes (the paper-vs-measured commentary).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, formatting each value with %v.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render produces the aligned text form of the table.
func (t *Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders the table as comma-separated values (quotes are not needed
// for the numeric content these tables carry).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Columns, ","))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// trimFloat renders floats compactly: integers without decimals, small
// magnitudes with sensible precision.
func trimFloat(x float64) string {
	switch {
	case x == float64(int64(x)) && x < 1e15 && x > -1e15:
		return fmt.Sprintf("%d", int64(x))
	case x >= 100 || x <= -100:
		return fmt.Sprintf("%.1f", x)
	case x >= 1 || x <= -1:
		return fmt.Sprintf("%.2f", x)
	default:
		return fmt.Sprintf("%.4f", x)
	}
}
