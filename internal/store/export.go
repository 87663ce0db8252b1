package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/provenance"
)

// ExportRows streams the current hot state as JSON lines — one Table-1 row
// per line, nodes before edges, each group sorted by ID. The format is a
// portable backup: ImportRows on an empty store reproduces the state, and
// external tooling can consume it line by line.
func (s *Store) ExportRows(w io.Writer) error {
	g := s.loadSnap().graph
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range renderTrace(g.Nodes(provenance.NodeFilter{}), g.AllEdges(provenance.EdgeFilter{})) {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("store: export: %v", err)
		}
	}
	return bw.Flush()
}

// importChunk bounds the records ImportRows holds before committing them.
const importChunk = 512

// ImportRows reads an ExportRows stream and inserts every record through
// the normal validated write path, one commit per chunk of the stream.
// Records already present (same ID) are skipped and counted; any other
// failure aborts. It returns (inserted, skipped).
func (s *Store) ImportRows(r io.Reader) (inserted, skipped int, err error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var (
		b    Batch
		held = map[string]bool{} // node IDs of the open chunk
		// Edges may reference nodes later in a hand-edited stream; those
		// whose endpoints have not arrived yet ride in the last commit.
		late []*provenance.Edge
	)
	flush := func() error {
		n, err := s.importBatch(b)
		inserted += n
		b, held = Batch{}, map[string]bool{}
		return err
	}
	cold := &coldOwners{s: s} // a trace's rows mostly arrive together
	known := func(id string) bool { return held[id] || s.node(id, cold) != nil }
	for {
		var row Row
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			return inserted, skipped, fmt.Errorf("store: import: %v", err)
		}
		n, e, err := DecodeRow(row)
		if err != nil {
			return inserted, skipped, fmt.Errorf("store: import: %v", err)
		}
		switch {
		case n != nil && known(n.ID), n == nil && s.edge(e.ID, cold) != nil:
			skipped++
			continue
		case n != nil:
			b.Nodes = append(b.Nodes, n)
			held[n.ID] = true
		case known(e.Source) && known(e.Target):
			b.Edges = append(b.Edges, e)
		default:
			late = append(late, e)
		}
		if len(b.Nodes)+len(b.Edges) >= importChunk {
			if err := flush(); err != nil {
				return inserted, skipped, err
			}
		}
	}
	b.Edges = append(b.Edges, late...)
	err = flush()
	return inserted, skipped, err
}
