package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/workload"
)

// E1Table1 reproduces Table 1 of the paper: the provenance entities of one
// execution trace stored as (ID, CLASS, APPID, XML) rows. It prints the
// actual rows for the first hiring trace, verifies codec round-trip
// fidelity over a corpus of `traces` traces, and measures encode/decode
// throughput.
func E1Table1(traces int) (*Table, error) {
	d, err := workload.Hiring()
	if err != nil {
		return nil, err
	}
	sys, err := core.New(d, core.Config{})
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	res := d.Simulate(workload.SimOptions{Seed: 1, Traces: traces, ViolationRate: 0.2, Visibility: 1.0})
	if err := sys.Ingest(res.Events); err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "E1",
		Title:   "Provenance entities of an execution trace as stored rows",
		Paper:   "Table 1 (storing the provenance entities of an execution trace)",
		Columns: []string{"ID", "CLASS", "APPID", "XML"},
	}
	app := sys.Store.AppIDs()[0]
	for _, row := range sys.Store.RowsForApp(app) {
		xml := row.XML
		if len(xml) > 96 {
			xml = xml[:93] + "..."
		}
		t.AddRow(row.ID, row.Class, row.AppID, xml)
	}

	// Round-trip fidelity and codec throughput over the whole corpus.
	var rows []store.Row
	for _, a := range sys.Store.AppIDs() {
		rows = append(rows, sys.Store.RowsForApp(a)...)
	}
	start := time.Now()
	var decoded int
	for _, r := range rows {
		n, e, err := store.DecodeRow(r)
		if err != nil {
			return nil, fmt.Errorf("round trip failed on %s: %v", r.ID, err)
		}
		if n != nil {
			if back, err := store.EncodeNode(n); err != nil || back.XML != r.XML {
				return nil, fmt.Errorf("re-encode mismatch on %s", r.ID)
			}
		} else {
			if back, err := store.EncodeEdge(e); err != nil || back.XML != r.XML {
				return nil, fmt.Errorf("re-encode mismatch on %s", r.ID)
			}
		}
		decoded++
	}
	elapsed := time.Since(start)
	t.Notes = append(t.Notes,
		fmt.Sprintf("round-trip verified on %d rows from %d traces (0 mismatches)", decoded, traces),
		fmt.Sprintf("decode+re-encode throughput: %.0f rows/sec", float64(decoded)/elapsed.Seconds()),
	)
	return t, nil
}
