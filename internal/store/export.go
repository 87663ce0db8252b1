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
	for _, e := range encodeTrace(g.Nodes(provenance.NodeFilter{}), g.AllEdges(provenance.EdgeFilter{})) {
		if err := enc.Encode(e.row); err != nil {
			return fmt.Errorf("store: export: %v", err)
		}
	}
	return bw.Flush()
}

// ImportRows reads an ExportRows stream and inserts every record through
// the normal validated write path. Records already present (same ID) are
// skipped and counted; any other failure aborts. It returns (inserted,
// skipped).
func (s *Store) ImportRows(r io.Reader) (inserted, skipped int, err error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var deferred []*provenance.Edge
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
		if n != nil {
			if s.Node(n.ID) != nil {
				skipped++
				continue
			}
			if err := s.PutNode(n); err != nil {
				return inserted, skipped, fmt.Errorf("store: import %s: %v", n.ID, err)
			}
			inserted++
			continue
		}
		if s.Edge(e.ID) != nil {
			skipped++
			continue
		}
		// Edges may reference nodes later in a hand-edited stream; defer
		// those whose endpoints are not present yet.
		if s.Node(e.Source) == nil || s.Node(e.Target) == nil {
			deferred = append(deferred, e)
			continue
		}
		if err := s.PutEdge(e); err != nil {
			return inserted, skipped, fmt.Errorf("store: import %s: %v", e.ID, err)
		}
		inserted++
	}
	for _, e := range deferred {
		if err := s.PutEdge(e); err != nil {
			return inserted, skipped, fmt.Errorf("store: import deferred %s: %v", e.ID, err)
		}
		inserted++
	}
	return inserted, skipped, nil
}
