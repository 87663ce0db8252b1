package provenance

import "sync/atomic"

// Secondary indexes over the copy-on-write graph.
//
// Each trace shard carries posting lists alongside its record maps:
// class→[]nodeID, type→[]nodeID, and (node, edgeType)→[]edgeID for each
// direction. The lists are sorted node/edge ID slices maintained at
// insert time under the same copy-on-first-write discipline as the rest
// of the shard, so every snapshot observes posting lists exactly
// consistent with the records it holds, at zero extra read-side cost.
// Indexes are never rebuilt: a shard clone copies them, an in-epoch
// insert shifts them in place.

// adjKey addresses one typed adjacency posting list: the edges of one
// type touching one node in one direction.
type adjKey struct {
	node string
	typ  string
}

// IndexStats counts index-backed versus scan-backed lookups since the
// working graph was constructed. Hits and scans are counted per query,
// not per record, so hits/(hits+scans) is the fraction of filtered reads
// the posting lists served.
type IndexStats struct {
	NodeHits  uint64 // Nodes/NodesByType served from a posting list
	NodeScans uint64 // Nodes/NodesByType that walked nodeIDs
	EdgeHits  uint64 // typed Edges/HasEdge/Neighbors served from a posting list
	EdgeScans uint64 // Edges/Neighbors that filtered the full adjacency list
}

// indexCounters is the mutable backing of IndexStats. One instance is
// shared by a working graph and every snapshot derived from it (like the
// record router), so reads through retained snapshots are attributed to
// the store's counters.
type indexCounters struct {
	nodeHits  atomic.Uint64
	nodeScans atomic.Uint64
	edgeHits  atomic.Uint64
	edgeScans atomic.Uint64
}

// IndexStats returns the cumulative index hit/miss counters.
func (g *Graph) IndexStats() IndexStats {
	return IndexStats{
		NodeHits:  g.ix.nodeHits.Load(),
		NodeScans: g.ix.nodeScans.Load(),
		EdgeHits:  g.ix.edgeHits.Load(),
		EdgeScans: g.ix.edgeScans.Load(),
	}
}

// posting returns the most selective node posting list for the filter:
// the type list when Type is set, else the class list. residual reports
// whether a per-node class check is still needed (both fields set — the
// type list does not imply the class matches). ok is false when the
// filter constrains neither field.
func (sh *traceShard) posting(f NodeFilter) (ids []string, residual bool, ok bool) {
	switch {
	case f.Type != "":
		return sh.byType[f.Type], f.Class != ClassInvalid, true
	case f.Class != ClassInvalid:
		return sh.byClass[f.Class], false, true
	default:
		return nil, false, false
	}
}

// indexedNodes serves a trace-scoped Nodes call from the shard's posting
// lists. ok is false when the filter has no indexable field, in which
// case the caller falls back to the scan path.
func (g *Graph) indexedNodes(sh *traceShard, f NodeFilter) (res []*Node, ok bool) {
	ids, residual, ok := sh.posting(f)
	if !ok {
		return nil, false
	}
	g.ix.nodeHits.Add(1)
	if len(ids) == 0 {
		return nil, true
	}
	if !residual {
		res = make([]*Node, len(ids))
		for i, id := range ids {
			res[i] = sh.nodes[id]
		}
		return res, true
	}
	for _, id := range ids {
		if n := sh.nodes[id]; n.Class == f.Class {
			res = append(res, n)
		}
	}
	return res, true
}

// NodesByType returns the nodes of one type sorted by ID, scoped to a
// trace when appID is non-empty. It is the binder access path of the
// rule planner: a trace-scoped lookup costs one allocation and never
// touches nodes of other types.
func (g *Graph) NodesByType(appID, typ string) []*Node {
	if appID == "" {
		return g.Nodes(NodeFilter{Type: typ})
	}
	sh := g.shard(appID)
	if sh == nil {
		return nil
	}
	g.ix.nodeHits.Add(1)
	ids := sh.byType[typ]
	if len(ids) == 0 {
		return nil
	}
	res := make([]*Node, len(ids))
	for i, id := range ids {
		res[i] = sh.nodes[id]
	}
	return res
}
