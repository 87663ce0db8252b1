// Package experiments regenerates the reproduction's runnable tables
// (experiments E1-E4, E6-E8, E12, E15 and E16; see DESIGN.md and
// EXPERIMENTS.md). The paper itself publishes no measured results — it is
// an architecture proposal — so E1, E2 and E4 reproduce its concrete
// artifacts (Table 1's storage rows, Fig 1/2's example trace and control
// subgraph, Fig 3's authoring pipeline), E3, E7 and E8 measure the claims
// its prose makes, and E6, E12, E15 and E16 compare two live arms of
// the system built around them. The retired single-arm experiments keep
// their last tables in EXPERIMENTS.md. cmd/benchrunner prints the tables.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's output: a titled grid plus free-form notes.
type Table struct {
	ID      string
	Title   string
	Paper   string // the paper artifact or claim this reproduces
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row, stringifying the cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render draws the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "   paper anchor: %s\n", t.Paper)
	}
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
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Runner enumerates every experiment for cmd/benchrunner.
type Runner struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

// All returns the full experiment suite with default parameters. quick
// shrinks the workloads for fast smoke runs.
func All(quick bool) []Runner {
	traces := 2000
	e6Traces := 2000
	e7Sizes := []int{10, 100, 1000, 10000}
	e12Traces := 8000
	e12Writers := []int{1, 4, 16}
	e15Sizes := []int{1000, 10000}
	e16Duration := 2 * time.Second
	e16OverheadRate := 25.0
	e16ScaleRate := 900.0
	e16Shards := []int{1, 2, 4}
	if quick {
		traces = 300
		e6Traces = 200
		e7Sizes = []int{10, 100, 1000}
		e12Traces = 120
		e12Writers = []int{1, 4}
		e15Sizes = []int{150, 1500}
		e16Duration = 400 * time.Millisecond
		e16OverheadRate = 20
		e16ScaleRate = 300
		e16Shards = []int{1, 2}
	}
	return []Runner{
		{"E1", "Table 1 storage rows", func() (*Table, error) { return E1Table1(traces) }},
		{"E2", "Fig 1/2 trace and control subgraph", E2Fig2},
		{"E3", "detection vs visibility", func() (*Table, error) {
			return E3Visibility(traces, []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5})
		}},
		{"E4", "Fig 3 authoring pipeline", E4Authoring},
		{"E6", "continuous vs batch checking", func() (*Table, error) { return E6Continuous(e6Traces) }},
		{"E7", "vocabulary scaling", func() (*Table, error) { return E7VocabScale(e7Sizes) }},
		{"E8", "control change cost", E8ChangeCost},
		{"E12", "async ingestion gateway vs in-process ingest", func() (*Table, error) {
			return E12Ingest(e12Traces, e12Writers)
		}},
		{"E15", "tiered storage vs all-resident ablation", func() (*Table, error) {
			return E15Tiering(e15Sizes)
		}},
		{"E16", "sharded cluster scale-out vs single node", func() (*Table, error) {
			return E16Cluster(e16Duration, e16OverheadRate, e16ScaleRate, e16Shards)
		}},
	}
}
