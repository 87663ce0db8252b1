package store

import "repro/internal/provenance"

// MVCC read path (design decision D7): the store keeps one mutable
// working state — the provenance graph, whose trace shards carry each
// trace's records, version and last-touch sequence, plus the cross-trace
// attribute index — and publishes an immutable snapshot of it through an
// atomic pointer after every commit (once per batch on the group-commit
// path, so snapshot cost is amortized exactly like fsyncs). Readers load
// the pointer and run lock-free with unbounded retention; every layer of
// the state tree is copy-on-first-write per publish epoch, so a publish
// copies only what the batch touched.
//
// Table-1 rows are not state. A row is a pure, canonical function of its
// record (nodeRow, edgeRow), so every row read — Row, RowsForApp,
// ExportRows, demotion, hot export — renders from the snapshot graph it
// already holds. The log and sealed segments store records, not rows
// (commit payloads, see log.go and segment.go), so rows exist as bytes
// only in ExportRows' output and in segments an older binary sealed.

// snapshot is one immutable published version of the store state. All
// reachable structure is frozen: the graph is a provenance snapshot, the
// index set a COW version whose shared levels are never mutated after
// publish.
type snapshot struct {
	graph *provenance.Graph
	idx   *indexSet
	seq   uint64
}

// graphRow encodes the record with the given ID, if g holds it.
func graphRow(g *provenance.Graph, id string) (Row, bool) {
	if n := g.Node(id); n != nil {
		return nodeRow(n), true
	}
	if e := g.Edge(id); e != nil {
		return edgeRow(e), true
	}
	return Row{}, false
}

// traceRecords returns one resident trace's records, each kind sorted by
// ID — the order segments seal and replay rebuilds.
func traceRecords(g *provenance.Graph, app string) ([]*provenance.Node, []*provenance.Edge) {
	return g.Nodes(provenance.NodeFilter{AppID: app}), g.AllEdges(provenance.EdgeFilter{AppID: app})
}

// renderTrace renders records as Table-1 rows, nodes first — the order a
// segment seals them in, so a replay finds every edge's endpoints.
func renderTrace(nodes []*provenance.Node, edges []*provenance.Edge) []Row {
	rows := make([]Row, 0, len(nodes)+len(edges))
	for _, n := range nodes {
		rows = append(rows, nodeRow(n))
	}
	for _, e := range edges {
		rows = append(rows, edgeRow(e))
	}
	return rows
}
