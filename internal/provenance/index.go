package provenance

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
)

// traceShard holds one trace's records in six sorted slices, the record
// lists and the indexes over them in one layout:
//
//   - nodes by ID and edges by ID;
//   - adj, one entry per (endpoint, direction, edge), by (node, dir, edge ID);
//   - adjT, the same entries by (node, dir, edge type, edge ID);
//   - byType, nodes by (type, ID), and byClass, nodes by (class, ID).
//
// Every lookup is a binary search for the start of a run followed by a scan
// of the run, and every run is already in ID order, so reads never sort.
// Posting lists hold record pointers, not IDs, so a read never resolves an
// ID a second time; UpdateNode swaps the pointer in all three node slices.
//
// A shard is copy-on-first-write per epoch, the epoch of the graph's trie
// of shards: Snapshot() moves the working trie to a new epoch, and the
// first mutation of a trace in the new epoch copies its shard — six slice
// copies. Later mutations in the same epoch insert into the private copy
// in place, so copy cost is amortized once per (touched trace × published
// snapshot), not per write.
type traceShard struct {
	epoch uint64
	// ver is the trace's monotonic version: the number of mutating
	// commits that touched it. The continuous-checking result cache keys
	// on it, and the snapshot-isolation stress test asserts a snapshot's
	// ver always equals the record count the same snapshot exposes.
	ver uint64
	// touch is the store commit sequence of the trace's last mutation (see
	// SetTraceLastTouch). It lives beside ver so both are published,
	// dropped and restored with the shard, never paired across snapshots.
	touch uint64

	nodes   []*Node
	edges   []*Edge
	adj     []adjEntry
	adjT    []adjEntry
	byType  []*Node
	byClass []*Node
}

// adjEntry is one edge seen from one of its endpoints: node is e.Source
// when dir is Out and e.Target when dir is In.
type adjEntry struct {
	node string
	dir  Direction
	e    *Edge
}

// compareAdj compares x with the key (node, dir, typ, id), the order of
// adjT. An empty typ skips the type level, which gives adj's order; an
// empty id ends the key, which finds the start of a run.
func compareAdj(x *adjEntry, node string, dir Direction, typ, id string) int {
	c := strings.Compare(x.node, node)
	if c == 0 {
		c = cmp.Compare(x.dir, dir)
	}
	if c == 0 && typ != "" {
		c = strings.Compare(x.e.Type, typ)
	}
	if c == 0 && id != "" {
		c = strings.Compare(x.e.ID, id)
	}
	return c
}

// IndexStats counts index-backed versus scan-backed lookups since the
// working graph was constructed. Hits and scans are counted per query,
// not per record, so hits/(hits+scans) is the fraction of filtered reads
// the posting lists served.
type IndexStats struct {
	NodeHits  uint64 // Nodes/NodesByType served from a posting list
	NodeScans uint64 // Nodes/NodesByType that walked the trace's nodes
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

// The searches below are written out rather than built on sort.Search: a
// trace holds 5–20 records in the common case, where a closure call per
// probe costs as much as the comparison it makes.

// searchNode returns the position of id in nodes (sorted by ID) or where it
// would be inserted, and whether it is there.
func searchNode(nodes []*Node, id string) (int, bool) {
	lo, hi := 0, len(nodes)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nodes[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(nodes) && nodes[lo].ID == id
}

// searchEdge is searchNode for edges.
func searchEdge(edges []*Edge, id string) (int, bool) {
	lo, hi := 0, len(edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if edges[m].ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(edges) && edges[lo].ID == id
}

// searchType returns the position of the first node of byType at or after
// (typ, id). With an empty id it finds the start of typ's run without
// comparing IDs, and so do the searches below.
func searchType(byType []*Node, typ, id string) int {
	lo, hi := 0, len(byType)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n := byType[m]; n.Type < typ || id != "" && n.Type == typ && n.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchClass returns the position of the first node of byClass at or
// after (c, id).
func searchClass(byClass []*Node, c Class, id string) int {
	lo, hi := 0, len(byClass)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if n := byClass[m]; n.Class < c || id != "" && n.Class == c && n.ID < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// searchAdj returns the position of the first entry of adj or adjT at or
// after (node, dir, typ, id), as compareAdj orders them.
func searchAdj(a []adjEntry, node string, dir Direction, typ, id string) int {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if compareAdj(&a[m], node, dir, typ, id) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// node returns the trace's node with the given ID, or nil.
func (sh *traceShard) node(id string) *Node {
	if i, ok := searchNode(sh.nodes, id); ok {
		return sh.nodes[i]
	}
	return nil
}

// edge returns the trace's edge with the given ID, or nil.
func (sh *traceShard) edge(id string) *Edge {
	if i, ok := searchEdge(sh.edges, id); ok {
		return sh.edges[i]
	}
	return nil
}

// run returns the node's adjacency run in one direction, in edge-ID order:
// its edges of one type when typ is set, all of them otherwise.
func (sh *traceShard) run(node string, dir Direction, typ string) []adjEntry {
	a := sh.adj
	if typ != "" {
		a = sh.adjT
	}
	lo := searchAdj(a, node, dir, typ, "")
	hi := lo
	for hi < len(a) && a[hi].dir == dir && a[hi].node == node && (typ == "" || a[hi].e.Type == typ) {
		hi++
	}
	return a[lo:hi]
}

// typeRange returns the trace's nodes of one type, in ID order.
func (sh *traceShard) typeRange(typ string) []*Node {
	lo := searchType(sh.byType, typ, "")
	hi := lo
	for hi < len(sh.byType) && sh.byType[hi].Type == typ {
		hi++
	}
	return sh.byType[lo:hi]
}

// classRange returns the trace's nodes of one class, in ID order.
func (sh *traceShard) classRange(c Class) []*Node {
	lo := searchClass(sh.byClass, c, "")
	hi := lo
	for hi < len(sh.byClass) && sh.byClass[hi].Class == c {
		hi++
	}
	return sh.byClass[lo:hi]
}

// addNode and addEdge file a validated record the shard does not hold yet
// in every slice that indexes it, shifting in place: the caller owns the
// shard for this epoch. Version, router and graph counts are the caller's.
func (sh *traceShard) addNode(n *Node) {
	i, _ := searchNode(sh.nodes, n.ID)
	sh.nodes = slices.Insert(sh.nodes, i, n)
	sh.byType = slices.Insert(sh.byType, searchType(sh.byType, n.Type, n.ID), n)
	sh.byClass = slices.Insert(sh.byClass, searchClass(sh.byClass, n.Class, n.ID), n)
}

func (sh *traceShard) addEdge(e *Edge) {
	i, _ := searchEdge(sh.edges, e.ID)
	sh.edges = slices.Insert(sh.edges, i, e)
	for _, x := range [2]adjEntry{{e.Source, Out, e}, {e.Target, In, e}} {
		sh.adj = slices.Insert(sh.adj, searchAdj(sh.adj, x.node, x.dir, "", e.ID), x)
		sh.adjT = slices.Insert(sh.adjT, searchAdj(sh.adjT, x.node, x.dir, e.Type, e.ID), x)
	}
}

// replaceNode swaps the stored node sharing n's ID, class and type for n
// in all three node slices.
func (sh *traceShard) replaceNode(n *Node) {
	i, _ := searchNode(sh.nodes, n.ID)
	sh.nodes[i] = n
	sh.byType[searchType(sh.byType, n.Type, n.ID)] = n
	sh.byClass[searchClass(sh.byClass, n.Class, n.ID)] = n
}

// clone copies the shard's six slices for a new epoch (record pointers are
// shared: records are immutable once stored), each with room for the
// commit about to land.
func (sh *traceShard) clone(epoch uint64) *traceShard {
	c := sh.cloneNodes()
	c.epoch = epoch
	c.edges = withRoom(sh.edges, 1)
	c.adj = withRoom(sh.adj, 2)
	c.adjT = withRoom(sh.adjT, 2)
	return c
}

// cloneNodes copies only the slices addNode writes — nodes, byType and
// byClass — and shares the edge side. The edge slices must never be written
// through the copy, so only an Overlay of a frozen shard, which adds nodes
// and nothing else, uses it.
func (sh *traceShard) cloneNodes() *traceShard {
	c := *sh
	c.nodes = withRoom(sh.nodes, 1)
	c.byType = withRoom(sh.byType, 1)
	c.byClass = withRoom(sh.byClass, 1)
	return &c
}

// withRoom copies s into a new slice with capacity for extra more.
func withRoom[T any](s []T, extra int) []T {
	return append(make([]T, 0, len(s)+extra), s...)
}

// buildShard files a trace's records in a new shard one slice at a time
// rather than by one sorted insert per record. It takes ownership of nodes
// and edges, which become the shard's ID-ordered slices: records arrive in
// ID order from a sealed segment, so the node and edge sorts only confirm
// the order (any other order is sorted in place); the other four slices
// take one sort each. A record whose ID repeats is filed once (the first
// one given), and every edge must join two of the given nodes.
func buildShard(appID string, nodes []*Node, edges []*Edge) (*traceShard, error) {
	for _, n := range nodes {
		if n == nil || n.AppID != appID {
			return nil, fmt.Errorf("provenance: restore of trace %s given foreign node", appID)
		}
	}
	for _, e := range edges {
		if e == nil || e.AppID != appID {
			return nil, fmt.Errorf("provenance: restore of trace %s given foreign edge", appID)
		}
	}
	sh := &traceShard{
		nodes: slices.CompactFunc(sorted(nodes, func(a, b *Node) int { return strings.Compare(a.ID, b.ID) }),
			func(a, b *Node) bool { return a.ID == b.ID }),
		edges: slices.CompactFunc(sorted(edges, func(a, b *Edge) int { return strings.Compare(a.ID, b.ID) }),
			func(a, b *Edge) bool { return a.ID == b.ID }),
	}
	for _, e := range sh.edges {
		if sh.node(e.Source) == nil {
			return nil, fmt.Errorf("provenance: restored edge %s references missing source %s", e.ID, e.Source)
		}
		if sh.node(e.Target) == nil {
			return nil, fmt.Errorf("provenance: restored edge %s references missing target %s", e.ID, e.Target)
		}
	}
	sh.byType = sortedCopy(sh.nodes, func(a, b *Node) int {
		return cmp.Or(strings.Compare(a.Type, b.Type), strings.Compare(a.ID, b.ID))
	})
	sh.byClass = sortedCopy(sh.nodes, func(a, b *Node) int {
		return cmp.Or(cmp.Compare(a.Class, b.Class), strings.Compare(a.ID, b.ID))
	})
	adj := make([]adjEntry, 0, 2*len(sh.edges))
	for _, e := range sh.edges {
		adj = append(adj, adjEntry{e.Source, Out, e}, adjEntry{e.Target, In, e})
	}
	sh.adjT = sortedCopy(adj, func(a, b adjEntry) int { return compareAdj(&a, b.node, b.dir, b.e.Type, b.e.ID) })
	sh.adj = sorted(adj, func(a, b adjEntry) int { return compareAdj(&a, b.node, b.dir, "", b.e.ID) })
	return sh, nil
}

// sorted stably sorts s by compare in place, unless it already is, and
// returns it.
func sorted[T any](s []T, compare func(a, b T) int) []T {
	if !slices.IsSortedFunc(s, compare) {
		slices.SortStableFunc(s, compare)
	}
	return s
}

// sortedCopy returns a copy of s stably sorted by compare.
func sortedCopy[T any](s []T, compare func(a, b T) int) []T {
	return sorted(withRoom(s, 0), compare)
}

// posting returns the most selective node posting list for the filter:
// the type run when Type is set, else the class run. residual reports
// whether a per-node class check is still needed (both fields set — the
// type run does not imply the class matches). ok is false when the
// filter constrains neither field.
func (sh *traceShard) posting(f NodeFilter) (ns []*Node, residual bool, ok bool) {
	switch {
	case f.Type != "":
		return sh.typeRange(f.Type), f.Class != ClassInvalid, true
	case f.Class != ClassInvalid:
		return sh.classRange(f.Class), false, true
	default:
		return nil, false, false
	}
}

// indexedNodes serves a trace-scoped Nodes call from the shard's posting
// lists. ok is false when the filter has no indexable field, in which
// case the caller falls back to the scan path.
func (g *Graph) indexedNodes(sh *traceShard, f NodeFilter) (res []*Node, ok bool) {
	ns, residual, ok := sh.posting(f)
	if !ok {
		return nil, false
	}
	g.ix.nodeHits.Add(1)
	if len(ns) == 0 {
		return nil, true
	}
	if !residual {
		return withRoom(ns, 0), true
	}
	for _, n := range ns {
		if n.Class == f.Class {
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
	ns := sh.typeRange(typ)
	if len(ns) == 0 {
		return nil
	}
	return withRoom(ns, 0)
}
