// Command benchrunner regenerates every experiment table of the
// reproduction (E1-E8 and E11-E17, see DESIGN.md and EXPERIMENTS.md) and
// prints them to stdout.
//
// Usage:
//
//	benchrunner [-quick] [-only E3,E5] [-json BENCH.json]
//
// -quick shrinks the workloads for a fast smoke run; -only selects a
// comma-separated subset of experiment IDs; -json additionally writes
// the tables (IDs, columns, rows, notes, wall time) to a machine-readable
// BENCH json file for trend tracking.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchTable is the JSON shape of one experiment table.
type benchTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Paper   string     `json:"paper,omitempty"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	Millis  int64      `json:"millis"`
}

func main() {
	quick := flag.Bool("quick", false, "run reduced workloads")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E3,E5)")
	jsonPath := flag.String("json", "", "also write results to this BENCH json file")
	flag.Parse()

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	failed := 0
	var out []benchTable
	for _, r := range experiments.All(*quick) {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		tbl, err := r.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s): FAILED: %v\n", r.ID, r.Name, err)
			failed++
			continue
		}
		elapsed := time.Since(start)
		fmt.Print(tbl.Render())
		fmt.Printf("   (%s completed in %s)\n\n", r.ID, elapsed.Round(time.Millisecond))
		out = append(out, benchTable{
			ID: tbl.ID, Title: tbl.Title, Paper: tbl.Paper,
			Columns: tbl.Columns, Rows: tbl.Rows, Notes: tbl.Notes,
			Millis: elapsed.Milliseconds(),
		})
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
