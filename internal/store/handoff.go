package store

import (
	"fmt"
	"io"
	"os"
)

// Shard handoff: moving a set of traces from one provd node to another.
// The wire format is the sealed-segment codec (PROVSEG1) — the same
// CRC-framed, footer-indexed file compaction writes — and the receiving
// node validates structure, checksums and decodability before a single
// record enters its store; the shipped file doubles as an audit artifact.
// A stream of any segment format but this binary's (format 2) is refused
// ("unsupported segment format") before anything is imported, on either
// side of a version change.
//
// The protocol is two-phase and idempotent:
//
//  1. bulk: the source streams ExportTraces while writes still flow;
//     the target replays it through ImportSegment, which skips records
//     it already holds (record IDs are write-once and globally unique).
//  2. cutover: the router sheds writes for the moving traces, the
//     source streams a tail export (same call — the import dedups the
//     overlap), the ring swaps, and the source commits DropTraces
//     tombstones so the moved traces cannot resurrect from its log or
//     its sealed segments.

// ExportStats summarizes one handoff export.
type ExportStats struct {
	Traces int    `json:"traces"`
	Rows   int    `json:"rows"`
	Seq    uint64 `json:"seq"`
}

// exportTrace takes one trace from either tier: a resident trace from one
// snapshot's graph, a sealed one out of its segment. Returns ok=false when
// the trace exists in neither.
func (s *Store) exportTrace(app string) (sealedTrace, bool, error) {
	if g := s.loadSnap().graph; g.TraceVersion(app) != 0 {
		return residentTrace(g, app), true, nil
	}
	seg, tr, ok := s.coldLookup(app, 0)
	if !ok {
		return sealedTrace{}, false, nil
	}
	out, err := s.tier.sealed(seg, tr)
	if err != nil {
		return sealedTrace{}, false, fmt.Errorf("store: export %s: %v", app, err)
	}
	return out, true, nil
}

// ExportTraces writes the named traces to w in the sealed-segment wire
// format, reading each from whichever tier currently holds it. Traces
// held by neither tier are silently skipped (the caller's trace list may
// be stale); the returned stats say what actually shipped. Writes to the
// exported traces may continue during the export — the handoff protocol
// re-exports the tail after shedding, and the importer dedups by record
// ID, so nothing is lost or doubled.
func (s *Store) ExportTraces(w io.Writer, apps []string) (ExportStats, error) {
	var st ExportStats
	demote := make([]sealedTrace, 0, len(apps))
	seen := map[string]bool{}
	for _, app := range apps {
		if app == "" || seen[app] {
			continue
		}
		seen[app] = true
		tr, ok, err := s.exportTrace(app)
		if err != nil {
			return st, err
		}
		if !ok {
			continue
		}
		st.Traces++
		st.Rows += tr.records()
		demote = append(demote, tr)
	}
	s.readTx(func(tx ReadTx) error { st.Seq = tx.seq; return nil })
	if len(demote) == 0 {
		// An empty segment is unrepresentable (no blocks); signal with a
		// zero-byte stream, which ImportSegment accepts as "nothing".
		return st, nil
	}
	f, err := os.CreateTemp("", "provhandoff-*.seg")
	if err != nil {
		return st, fmt.Errorf("store: export: %v", err)
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	if _, err := writeSegment(OSFS{}, path, st.Seq, demote, s.opts.SegmentBlockBytes); err != nil {
		return st, fmt.Errorf("store: export: %v", err)
	}
	src, err := os.Open(path)
	if err != nil {
		return st, fmt.Errorf("store: export: %v", err)
	}
	defer src.Close()
	if _, err := io.Copy(w, src); err != nil {
		return st, fmt.Errorf("store: export: %v", err)
	}
	return st, nil
}

// ImportSegment replays an ExportTraces stream through the normal
// validated write path, one commit per block. The stream is
// staged to a temp file and opened with the segment reader first, so
// checksums, framing and the footer are verified before any row is
// applied. Records already present (same ID, either tier) are skipped —
// re-delivery and bulk/tail overlap are harmless. Returns (inserted,
// skipped).
func (s *Store) ImportSegment(r io.Reader) (inserted, skipped int, err error) {
	f, err := os.CreateTemp("", "provhandoff-*.seg")
	if err != nil {
		return 0, 0, fmt.Errorf("store: import: %v", err)
	}
	path := f.Name()
	defer os.Remove(path)
	n, err := io.Copy(f, r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, 0, fmt.Errorf("store: import: staging: %v", err)
	}
	if n == 0 {
		return 0, 0, nil // empty export: nothing to move
	}
	seg, err := openSegment(OSFS{}, path, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("store: import: invalid segment stream: %v", err)
	}
	var (
		p    []byte
		b    Batch
		cold = &coldOwners{s: s} // a trace's records are contiguous
	)
	commit := func() error {
		n, err := s.importBatch(b)
		inserted, b = inserted+n, Batch{}
		return err
	}
	for i, tr := range seg.traces {
		if i == 0 || tr.Blk != seg.traces[i-1].Blk {
			if err := commit(); err != nil {
				return inserted, skipped, err
			}
			if p, err = seg.readBlock(tr.Blk); err != nil {
				return inserted, skipped, fmt.Errorf("store: import: block %d: %v", tr.Blk, err)
			}
		}
		st, err := seg.records(p, tr, s.names)
		if err != nil {
			return inserted, skipped, fmt.Errorf("store: import: block %d: %v", tr.Blk, err)
		}
		for _, nd := range st.nodes {
			if s.node(nd.ID, cold) != nil {
				skipped++
				continue
			}
			b.Nodes = append(b.Nodes, nd)
		}
		for _, ed := range st.edges {
			if s.edge(ed.ID, cold) != nil {
				skipped++
				continue
			}
			b.Edges = append(b.Edges, ed)
		}
	}
	return inserted, skipped, commit()
}

// importBatch commits one import unit and counts what landed. Records
// stand alone; the first rejection is the import's error.
func (s *Store) importBatch(b Batch) (inserted int, err error) {
	res := s.Commit(b)
	for _, errs := range [][]error{res.Nodes, res.Edges} {
		for _, rerr := range errs {
			if rerr == nil {
				inserted++
			} else if err == nil {
				err = fmt.Errorf("store: import: %v", rerr)
			}
		}
	}
	return inserted, err
}

// DropTraces removes the named traces from this node after a handoff:
// one opTraceDrop tombstone per trace commits through the normal log
// path (so replay removes instead of resurrecting), then the sealed
// copies are scrubbed out of their segments. A dropped trace that had been
// promoted by reference leaves its marker in the log naming a sealed copy
// the scrub just removed; the tombstone behind it is what lets replay pass
// over the marker instead of failing Open (see replayAll). The tombstones
// disappear at the next log rewrite, which is built from the
// already-dropped state. Traces not present are tombstoned anyway — the
// caller's view and ours may disagree, and a tombstone for an absent trace
// is inert.
func (s *Store) DropTraces(apps ...string) error {
	if len(apps) == 0 {
		return nil
	}
	// compactMu serializes against sealing: no segment can be written
	// between the tombstone commit and the scrub below, so "sealed at or
	// before the drop sequence" cleanly separates dead copies from any
	// future re-import.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	var seqNow uint64
	s.readTx(func(tx ReadTx) error { seqNow = tx.seq; return nil })
	for _, app := range apps {
		if app == "" {
			continue
		}
		drop := entry{op: opTraceDrop, app: app, gen: seqNow}
		if err := s.commitAll([]entry{drop})[0]; err != nil {
			return fmt.Errorf("store: drop %s: %v", app, err)
		}
	}
	if err := s.scrubDroppedLocked(); err != nil {
		// The tombstones are durable and the in-memory dropped map still
		// guards lookups; the scrub retries at next Open.
		return fmt.Errorf("store: drop: scrub: %v", err)
	}
	return nil
}
