// Package experiments regenerates every table and figure of the
// reproduction (experiments E1-E8 and E11-E17; see DESIGN.md and
// EXPERIMENTS.md). The paper itself publishes no measured results — it is
// an architecture proposal — so E1 and E2 reproduce its concrete artifacts
// (Table 1's storage rows, Fig 1/2's example trace and control subgraph,
// Fig 3's authoring pipeline), E3-E8 measure the claims its prose makes,
// and E11-E17 measure the system built around them. E9 and E10 exist only
// as testing.B benchmarks in bench_test.go, which also wraps several of
// these tables. cmd/benchrunner prints the tables.
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

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
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
	e5Sizes := []int{1000, 5000, 10000, 25000}
	e6Traces := 2000
	e7Sizes := []int{10, 100, 1000, 10000}
	e11Sizes := []int{250, 1000, 4000}
	e12Traces := 800
	e12Writers := []int{1, 4, 16}
	e13Duration := 1500 * time.Millisecond
	e13Rate := 300.0
	e13Mults := []float64{0.5, 1, 2, 4}
	e14Sizes := []int{1000, 4000, 16000}
	e14Commits := 64
	e14Duration := 1200 * time.Millisecond
	e14Rate := 200.0
	e15Sizes := []int{1000, 10000}
	e16Duration := 2 * time.Second
	e16OverheadRate := 25.0
	e16ScaleRate := 900.0
	e16Shards := []int{1, 2, 4}
	e17Duration := 3 * time.Second
	e17QuietRate := 10.0
	e17NoisyRate := 150.0
	if quick {
		traces = 300
		e5Sizes = []int{200, 500, 1000}
		e6Traces = 200
		e7Sizes = []int{10, 100, 1000}
		e11Sizes = []int{250, 1000}
		e12Traces = 120
		e12Writers = []int{1, 4}
		e13Duration = 400 * time.Millisecond
		e13Rate = 150
		e13Mults = []float64{0.5, 2, 6}
		e14Sizes = []int{250, 1000}
		e14Commits = 24
		e14Duration = 400 * time.Millisecond
		e14Rate = 100
		e15Sizes = []int{150, 1500}
		e16Duration = 400 * time.Millisecond
		e16OverheadRate = 20
		e16ScaleRate = 300
		e16Shards = []int{1, 2}
		e17Duration = 600 * time.Millisecond
		e17QuietRate = 10
		e17NoisyRate = 150
	}
	return []Runner{
		{"E1", "Table 1 storage rows", func() (*Table, error) { return E1Table1(traces) }},
		{"E2", "Fig 1/2 trace and control subgraph", E2Fig2},
		{"E3", "detection vs visibility", func() (*Table, error) {
			return E3Visibility(traces, []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5})
		}},
		{"E4", "Fig 3 authoring pipeline", E4Authoring},
		{"E5", "compliance checking at scale", func() (*Table, error) { return E5Scale(e5Sizes) }},
		{"E6", "continuous vs batch checking", func() (*Table, error) { return E6Continuous(e6Traces) }},
		{"E7", "vocabulary scaling", func() (*Table, error) { return E7VocabScale(e7Sizes) }},
		{"E8", "control change cost", E8ChangeCost},
		{"E11", "index-accelerated rule evaluation", func() (*Table, error) {
			return E11RuleIndex(e11Sizes, 16)
		}},
		{"E12", "async ingestion gateway vs sync ingest", func() (*Table, error) {
			return E12Ingest(e12Traces, e12Writers)
		}},
		{"E13", "open-loop load sweep (provbench)", func() (*Table, error) {
			return E13Provbench(e13Duration, e13Rate, e13Mults)
		}},
		{"E14", "delta-driven evaluation", func() (*Table, error) {
			return E14Delta(e14Sizes, e14Commits, e14Duration, e14Rate)
		}},
		{"E15", "tiered storage vs all-resident ablation", func() (*Table, error) {
			return E15Tiering(e15Sizes)
		}},
		{"E16", "sharded cluster scale-out vs single node", func() (*Table, error) {
			return E16Cluster(e16Duration, e16OverheadRate, e16ScaleRate, e16Shards)
		}},
		{"E17", "multi-tenant fair-share checking", func() (*Table, error) {
			return E17Tenants(e17Duration, e17QuietRate, e17NoisyRate)
		}},
	}
}
