package provenance

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pmap"
)

// Direction selects edge orientation relative to a node when traversing.
type Direction int

const (
	// Out follows edges whose Source is the node.
	Out Direction = iota
	// In follows edges whose Target is the node.
	In
	// Both follows edges in either orientation.
	Both
)

// String returns "out", "in" or "both".
func (d Direction) String() string {
	switch d {
	case Out:
		return "out"
	case In:
		return "in"
	default:
		return "both"
	}
}

// ErrFrozen is returned by mutating methods on a snapshot (or on a
// subgraph returned by Trace): snapshots are immutable by contract, so a
// write to one is always a caller bug, never a data race.
var ErrFrozen = errors.New("provenance: graph is a frozen snapshot")

// ErrDuplicate marks AddNode/AddEdge rejections caused by an ID that is
// already recorded. At-least-once delivery paths (the ingestion gateway's
// retry semantics) match it with errors.Is to distinguish a redelivered
// record — benign when the stored row is identical — from a genuine
// validation failure.
var ErrDuplicate = errors.New("duplicate record ID")

// routerStripes is the lock striping of the record-ID router.
const routerStripes = 64

// fnv32 is an inline FNV-1a so stripe selection never allocates.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// router maps record IDs to the trace that owns them. It is shared by a
// working graph and every snapshot derived from it: record IDs are
// write-once (never reused, never re-homed to another trace), so an entry
// is immutable after insertion and striped-lock reads stay coherent
// across snapshots. A router hit only locates the candidate owning trace;
// visibility is always decided by the (possibly older) shard the calling
// graph actually holds.
type router struct {
	stripes [routerStripes]routerStripe
}

type routerStripe struct {
	mu sync.RWMutex
	m  map[string]string
	// peak is the stripe's high-water entry count. Go maps never release
	// bucket arrays on delete, so after a large eviction the map would
	// keep its peak footprint forever; drop rebuilds the map once it has
	// shrunk well below peak, which is what actually returns the memory.
	peak int
}

// routerShrinkSlack keeps tiny stripes from rebuilding on every drop.
const routerShrinkSlack = 64

func newRouter() *router {
	r := &router{}
	for i := range r.stripes {
		r.stripes[i].m = make(map[string]string)
	}
	return r
}

func (r *router) get(id string) (string, bool) {
	st := &r.stripes[fnv32(id)%routerStripes]
	st.mu.RLock()
	app, ok := st.m[id]
	st.mu.RUnlock()
	return app, ok
}

func (r *router) put(id, app string) {
	st := &r.stripes[fnv32(id)%routerStripes]
	st.mu.Lock()
	st.m[id] = app
	if len(st.m) > st.peak {
		st.peak = len(st.m)
	}
	st.mu.Unlock()
}

// drop removes a batch of IDs. Used when a trace's records leave the hot
// tier for good (demotion to a sealed segment): retaining the entries
// would grow the router linearly with total trace count and defeat
// tiering's bounded-memory goal. See Graph.EvictRouting for the
// visibility contract.
func (r *router) drop(ids []string) {
	var grouped [routerStripes][]string
	for _, id := range ids {
		si := fnv32(id) % routerStripes
		grouped[si] = append(grouped[si], id)
	}
	for si := range grouped {
		if len(grouped[si]) == 0 {
			continue
		}
		st := &r.stripes[si]
		st.mu.Lock()
		for _, id := range grouped[si] {
			delete(st.m, id)
		}
		// Rebuild once well below peak; halving the trigger each time
		// keeps total rebuild work linear across a long demotion run.
		if st.peak > 2*len(st.m)+routerShrinkSlack {
			m := make(map[string]string, len(st.m))
			for k, v := range st.m {
				m[k] = v
			}
			st.m = m
			st.peak = len(m)
		}
		st.mu.Unlock()
	}
}

// GraphCopyStats counts the copy-on-write work a mutable graph has done
// since construction: how many trace shards (and the records inside them)
// were cloned because a snapshot froze the previous version. Divided by
// the number of snapshots published this measures the amortized publish
// cost the MVCC design promises to keep sub-linear.
type GraphCopyStats struct {
	Shards uint64
	Nodes  uint64
	Edges  uint64
}

// Graph is an in-memory provenance graph: nodes keyed by ID with
// adjacency lists for incoming and outgoing relation edges, sharded by
// trace (every record carries an AppID and edges never cross traces, so
// a trace shard is a self-contained subgraph).
//
// The graph holds only the HOT tier: traces the store demotes to sealed
// on-disk segments leave the graph entirely (DropTrace, then
// EvictRouting for their record-ID router entries) and come back on
// demand (RestoreTrace), so resident memory — shards AND router — tracks
// the working set, not the total trace count. ID-based reads of demoted
// records resolve through the segments' row-ID bloom filters instead of
// the router.
//
// A Graph is either mutable (the store's single working graph, mutated
// under the store's write serialization) or frozen (returned by
// Snapshot/Trace). Frozen graphs are deeply immutable and safe for
// concurrent readers with no locking and unbounded retention; mutating
// methods on them fail with ErrFrozen. Mutating the working graph never
// disturbs previously taken snapshots: trie paths and shards are copied on
// first write after each Snapshot call (see pmap and traceShard).
type Graph struct {
	frozen bool
	nNodes int
	nEdges int
	// traces maps trace IDs to shards; one carrying the trie's epoch is
	// the working graph's own and changes in place.
	traces pmap.Map[*traceShard]
	router *router
	// solo and one are the trace ID and shard of a one-trace graph (built
	// by Trace, Overlay or SealedTrace). Such a graph is frozen, routes
	// every record ID to its trace and has no router, which is how it is
	// told apart: its shard may hold records the shared router has not
	// heard of yet. one is nil when the trace is absent.
	solo string
	one  *traceShard
	// ix counts index hits/misses; shared (like the router) between a
	// working graph and its snapshots.
	ix *indexCounters

	// Copy-on-write accounting, meaningful on the working graph only.
	// Atomics because Store.Stats reads them concurrently with writers.
	copiedShards atomic.Uint64
	copiedNodes  atomic.Uint64
	copiedEdges  atomic.Uint64
}

// NewGraph returns an empty mutable graph.
func NewGraph() *Graph {
	return &Graph{router: newRouter(), ix: &indexCounters{}}
}

// traceGraph returns the frozen one-trace graph over sh (nil: the trace is
// absent).
func traceGraph(appID string, sh *traceShard, ix *indexCounters) *Graph {
	t := &Graph{frozen: true, solo: appID, one: sh, ix: ix}
	if sh != nil {
		t.nNodes, t.nEdges = len(sh.nodes), len(sh.edges)
	}
	return t
}

// SealedTrace builds the frozen one-trace graph of a trace's records at
// version ver: the read-only form of a sealed copy. It has no router and
// shares nothing with any other graph. It takes ownership of nodes and
// edges, which arrive in ID order from a segment and become the graph's
// own; the rules are RestoreTrace's.
func SealedTrace(appID string, nodes []*Node, edges []*Edge, ver uint64) (*Graph, error) {
	sh, err := buildShard(appID, nodes, edges)
	if err != nil {
		return nil, err
	}
	sh.ver = ver
	return traceGraph(appID, sh, &indexCounters{}), nil
}

// NumNodes reports the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.nNodes }

// NumEdges reports the number of relation edges in the graph.
func (g *Graph) NumEdges() int { return g.nEdges }

// Frozen reports whether the graph is an immutable snapshot.
func (g *Graph) Frozen() bool { return g.frozen }

// Snapshot returns an immutable point-in-time view of the graph sharing
// all trace shards with g, in O(1), after which the next mutation of each
// trace copies that trace's shard and trie path first. It writes nothing
// reads of g touch, which the store makes under a read lock while it
// publishes. Calling Snapshot on a frozen graph returns it unchanged.
func (g *Graph) Snapshot() *Graph {
	if g.frozen {
		return g
	}
	return &Graph{
		frozen: true,
		nNodes: g.nNodes,
		nEdges: g.nEdges,
		traces: g.traces.Snapshot(),
		router: g.router,
		ix:     g.ix,
	}
}

// CopyStats returns the cumulative copy-on-write counters.
func (g *Graph) CopyStats() GraphCopyStats {
	return GraphCopyStats{
		Shards: g.copiedShards.Load(),
		Nodes:  g.copiedNodes.Load(),
		Edges:  g.copiedEdges.Load(),
	}
}

// shard returns the trace's shard for reading, or nil.
func (g *Graph) shard(appID string) *traceShard {
	if g.router == nil {
		if appID == g.solo {
			return g.one
		}
		return nil
	}
	sh, _ := g.traces.Get(appID)
	return sh
}

// eachShard calls fn for every resident trace, in no particular order.
func (g *Graph) eachShard(fn func(appID string, sh *traceShard)) {
	if g.router == nil {
		if g.one != nil {
			fn(g.solo, g.one)
		}
		return
	}
	g.traces.Range(fn)
}

// shardOf resolves the shard owning a record ID via the router. The
// router may know IDs newer than this graph (it is shared with the
// working graph), so a nil shard or an ID missing from the shard simply
// means "not visible in this version".
func (g *Graph) shardOf(id string) *traceShard {
	app, ok := g.TraceHint(id)
	if !ok {
		return nil
	}
	return g.shard(app)
}

// shardForWrite returns the trace's shard for mutation, copying the shard
// out of a frozen epoch as needed.
func (g *Graph) shardForWrite(appID string) *traceShard {
	sh, _ := g.traces.Get(appID)
	epoch := g.traces.Epoch()
	switch {
	case sh == nil:
		sh = &traceShard{epoch: epoch}
	case sh.epoch != epoch:
		sh = sh.clone(epoch)
		g.copiedShards.Add(1)
		g.copiedNodes.Add(uint64(len(sh.nodes)))
		g.copiedEdges.Add(uint64(len(sh.edges)))
	default:
		return sh
	}
	g.traces.Set(appID, sh)
	return sh
}

// AddNode inserts a node. It rejects invalid nodes and duplicate IDs
// (record IDs are immutable once written to the provenance store).
func (g *Graph) AddNode(n *Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if g.frozen {
		return ErrFrozen
	}
	if app, ok := g.router.get(n.ID); ok {
		if sh := g.shard(app); sh != nil && sh.edge(n.ID) != nil {
			return fmt.Errorf("provenance: node ID %s collides with an edge ID", n.ID)
		}
		return fmt.Errorf("provenance: duplicate node ID %s: %w", n.ID, ErrDuplicate)
	}
	sh := g.shardForWrite(n.AppID)
	sh.addNode(n)
	sh.ver++
	g.router.put(n.ID, n.AppID)
	g.nNodes++
	return nil
}

// UpdateNode replaces the stored node that shares n's ID. The class, type
// and app ID must not change: a provenance record's identity is fixed, only
// attribute enrichment is allowed.
func (g *Graph) UpdateNode(n *Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if g.frozen {
		return ErrFrozen
	}
	old := g.Node(n.ID)
	if old == nil {
		return fmt.Errorf("provenance: update of unknown node %s", n.ID)
	}
	if old.Class != n.Class || old.Type != n.Type || old.AppID != n.AppID {
		return fmt.Errorf("provenance: update of node %s changes identity (class/type/appID)", n.ID)
	}
	sh := g.shardForWrite(n.AppID)
	sh.replaceNode(n)
	sh.ver++
	return nil
}

// AddEdge inserts a relation edge. Both endpoints must already exist and
// belong to the same trace as the edge.
func (g *Graph) AddEdge(e *Edge) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if g.frozen {
		return ErrFrozen
	}
	if app, ok := g.router.get(e.ID); ok {
		if sh := g.shard(app); sh != nil && sh.node(e.ID) != nil {
			return fmt.Errorf("provenance: edge ID %s collides with a node ID", e.ID)
		}
		return fmt.Errorf("provenance: duplicate edge ID %s: %w", e.ID, ErrDuplicate)
	}
	src := g.Node(e.Source)
	if src == nil {
		return fmt.Errorf("provenance: edge %s references unknown source %s", e.ID, e.Source)
	}
	dst := g.Node(e.Target)
	if dst == nil {
		return fmt.Errorf("provenance: edge %s references unknown target %s", e.ID, e.Target)
	}
	if src.AppID != e.AppID || dst.AppID != e.AppID {
		return fmt.Errorf("provenance: edge %s crosses traces (%s: %s -> %s: %s)",
			e.ID, e.AppID, src.AppID, e.Target, dst.AppID)
	}
	sh := g.shardForWrite(e.AppID)
	sh.addEdge(e)
	sh.ver++
	g.router.put(e.ID, e.AppID)
	g.nEdges++
	return nil
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node {
	sh := g.shardOf(id)
	if sh == nil {
		return nil
	}
	return sh.node(id)
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id string) *Edge {
	sh := g.shardOf(id)
	if sh == nil {
		return nil
	}
	return sh.edge(id)
}

// TraceVersion returns the monotonic version of one trace: the number of
// mutating operations (node adds, updates, edge adds) applied to it in
// this graph version. Zero means the trace is absent.
func (g *Graph) TraceVersion(appID string) uint64 {
	sh := g.shard(appID)
	if sh == nil {
		return 0
	}
	return sh.ver
}

// HasEdge reports whether an edge of the given type exists between the two
// nodes in the given orientation. This is the primitive the paper uses to
// verify an internal control: "a business control point is satisfied if
// certain vertices and edges exist in the provenance graph". Allocation
// free: the source's typed adjacency run is scanned in place. Every edge
// has a type, so an empty edgeType matches none.
func (g *Graph) HasEdge(source, edgeType, target string) bool {
	sh := g.shardOf(source)
	if sh == nil || edgeType == "" {
		return false
	}
	for _, x := range sh.run(source, Out, edgeType) {
		if x.e.Target == target {
			return true
		}
	}
	return false
}

// Edges returns the edges touching the node in the given direction,
// filtered by edge type when edgeType is non-empty. The result is a fresh
// slice sorted by edge ID; adjacency runs are kept in edge-ID order, so
// no sort happens here. A typed lookup reads the typed adjacency run: the
// result is pre-sized exactly and edges of other types are never touched.
func (g *Graph) Edges(nodeID string, dir Direction, edgeType string) []*Edge {
	sh := g.shardOf(nodeID)
	if sh == nil {
		return nil
	}
	typed := edgeType != ""
	if typed {
		g.ix.edgeHits.Add(1)
	} else {
		g.ix.edgeScans.Add(1)
	}
	if dir == Out || dir == In {
		xs := sh.run(nodeID, dir, edgeType)
		res := make([]*Edge, len(xs))
		for i := range xs {
			res[i] = xs[i].e
		}
		return res
	}
	// Merge the two ID-ordered runs. Self-loops are rejected at insert,
	// so the runs are disjoint and no dedup is needed.
	out, in := sh.run(nodeID, Out, edgeType), sh.run(nodeID, In, edgeType)
	res := make([]*Edge, 0, len(out)+len(in))
	i, j := 0, 0
	for i < len(out) || j < len(in) {
		if j >= len(in) || (i < len(out) && out[i].e.ID < in[j].e.ID) {
			res = append(res, out[i].e)
			i++
		} else {
			res = append(res, in[j].e)
			j++
		}
	}
	return res
}

// Neighbors returns the nodes reachable from nodeID over edges of the
// given type and direction, sorted by node ID. The returned slice is
// freshly allocated and owned by the caller, which may filter it in place
// (xom.Navigate does).
func (g *Graph) Neighbors(nodeID string, dir Direction, edgeType string) []*Node {
	sh := g.shardOf(nodeID)
	if sh == nil {
		return nil
	}
	// A typed traversal walks the typed adjacency runs, so edges of other
	// types are never loaded.
	var out, in []adjEntry
	if dir == Out || dir == Both {
		out = sh.run(nodeID, Out, edgeType)
	}
	if dir == In || dir == Both {
		in = sh.run(nodeID, In, edgeType)
	}
	var res []*Node
	add := func(id string) {
		pos, found := sort.Find(len(res), func(i int) int { return strings.Compare(id, res[i].ID) })
		n := sh.node(id)
		if found || n == nil {
			return
		}
		if res == nil {
			res = make([]*Node, 0, len(out)+len(in))
		}
		res = slices.Insert(res, pos, n)
	}
	for _, x := range out {
		add(x.e.Target)
	}
	for _, x := range in {
		add(x.e.Source)
	}
	return res
}

// Nodes returns all nodes matching the filter, sorted by ID. A zero-value
// filter matches everything. Trace-scoped filters iterate the trace's
// ID-ordered nodes and cost O(trace size) with no sorting; class- or
// type-constrained filters are served from the shard posting lists and
// cost O(matches) instead.
func (g *Graph) Nodes(f NodeFilter) []*Node {
	if f.AppID != "" {
		sh := g.shard(f.AppID)
		if sh == nil {
			return nil
		}
		if res, ok := g.indexedNodes(sh, f); ok {
			return res
		}
		g.ix.nodeScans.Add(1)
		var res []*Node
		for _, n := range sh.nodes {
			if f.Matches(n) {
				res = append(res, n)
			}
		}
		return res
	}
	indexed := f.Type != "" || f.Class != ClassInvalid
	if indexed {
		g.ix.nodeHits.Add(1)
	} else {
		g.ix.nodeScans.Add(1)
	}
	var res []*Node
	g.eachShard(func(_ string, sh *traceShard) {
		if ns, residual, ok := sh.posting(f); ok {
			for _, n := range ns {
				if !residual || n.Class == f.Class {
					res = append(res, n)
				}
			}
			return
		}
		res = append(res, sh.nodes...)
	})
	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	return res
}

// AllEdges returns all edges matching the filter, sorted by ID.
// Trace-scoped filters iterate the trace's ID-ordered edges instead of
// scanning every edge in the store.
func (g *Graph) AllEdges(f EdgeFilter) []*Edge {
	if f.AppID != "" {
		sh := g.shard(f.AppID)
		if sh == nil {
			return nil
		}
		var res []*Edge
		for _, e := range sh.edges {
			if f.Matches(e) {
				res = append(res, e)
			}
		}
		return res
	}
	var res []*Edge
	g.eachShard(func(_ string, sh *traceShard) {
		for _, e := range sh.edges {
			if f.Matches(e) {
				res = append(res, e)
			}
		}
	})
	sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
	return res
}

// NodeFilter selects nodes by class, type and/or trace. Empty fields match
// any value.
type NodeFilter struct {
	Class Class
	Type  string
	AppID string
}

// Matches reports whether the node satisfies every set field.
func (f NodeFilter) Matches(n *Node) bool {
	if n == nil {
		return false
	}
	if f.Class != ClassInvalid && n.Class != f.Class {
		return false
	}
	if f.Type != "" && n.Type != f.Type {
		return false
	}
	if f.AppID != "" && n.AppID != f.AppID {
		return false
	}
	return true
}

// EdgeFilter selects edges by type and/or trace. Empty fields match any
// value.
type EdgeFilter struct {
	Type  string
	AppID string
}

// Matches reports whether the edge satisfies every set field.
func (f EdgeFilter) Matches(e *Edge) bool {
	if e == nil {
		return false
	}
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if f.AppID != "" && e.AppID != f.AppID {
		return false
	}
	return true
}

// Trace extracts the subgraph of a single process execution trace: all
// nodes and edges whose AppID matches. The returned graph is a frozen
// snapshot sharing record pointers with g. Extracting from a frozen graph
// shares the trace's shard outright (O(1)); extracting from a mutable
// graph copies the shard so later writes to g cannot leak in.
func (g *Graph) Trace(appID string) *Graph { return g.Overlay(appID, nil) }

// Overlay returns the trace as it will stand once the given nodes are
// committed: Trace plus every node of add that belongs to the trace and
// whose ID it does not hold yet. The ingest path derives correlation
// records against it before anything is written, so nodes and what they
// cause can share one commit. Adding copies the shard first: g, its router
// and its snapshots never see the added nodes. A frozen shard is immutable,
// so adding to it copies only the node side and shares the edge slices; a
// mutable graph's shard may still change in place, so anything taken from
// it is a full copy.
func (g *Graph) Overlay(appID string, add []*Node) *Graph {
	sh := g.shard(appID)
	switch {
	case sh == nil && len(add) > 0:
		sh = &traceShard{}
	case sh != nil && !g.frozen:
		sh = sh.clone(sh.epoch)
	case sh != nil && len(add) > 0:
		sh = sh.cloneNodes()
	}
	for _, n := range add {
		if n.AppID == appID && sh.node(n.ID) == nil {
			sh.addNode(n)
		}
	}
	return traceGraph(appID, sh, g.ix)
}

// NumTraces reports the number of resident trace shards.
func (g *Graph) NumTraces() int {
	if g.router == nil {
		if g.one == nil {
			return 0
		}
		return 1
	}
	return g.traces.Len()
}

// TraceHint names the trace that may hold a record ID — the shared
// router's answer, or a single-trace graph's only trace — without
// requiring the trace's shard to be resident. The store's tiering layer
// uses it to route ID-based reads to cold traces; whether this version
// holds the record is Node's and Edge's answer.
func (g *Graph) TraceHint(id string) (appID string, ok bool) {
	if g.router == nil {
		return g.solo, true
	}
	return g.router.get(id)
}

// DropTrace removes a trace's shard from the graph (demotion to a sealed
// segment). Router entries for the trace's records are NOT touched here;
// the store evicts them separately with EvictRouting once the sealed
// segment is registered and can answer ID-based reads itself. Previously
// published snapshots are untouched: the trie path is copied out of frozen
// epochs first, and the nodes only the trace held are given back.
// Returns false when the trace is not resident.
func (g *Graph) DropTrace(appID string) bool {
	if g.frozen {
		return false
	}
	sh := g.shard(appID)
	if sh == nil {
		return false
	}
	g.traces.Delete(appID)
	g.nNodes -= len(sh.nodes)
	g.nEdges -= len(sh.edges)
	return true
}

// EvictRouting removes the given record IDs from the shared record-ID
// router. The router is shared by the working graph and every snapshot,
// so eviction is global: it must only run once the records' sealed
// segment is registered and serves ID-based reads, and only for traces
// no snapshot still needs to route by raw ID. Trace-level reads (by app
// ID) never touch the router and are unaffected. Without eviction the
// router grows with every record ever written — linear in total trace
// count — which is exactly the memory curve tiering exists to flatten.
// A later write to the trace promotes it, and RestoreTrace re-inserts
// the entries, so duplicate-ID detection for redelivered events still
// holds (promotion is keyed by app ID, not by the router).
func (g *Graph) EvictRouting(ids []string) {
	g.router.drop(ids)
}

// RestoreTrace rebuilds a demoted trace's shard from its sealed rows and
// pins the trace's version counter to the sealed value, so hot and cold
// reads agree on versions. It bypasses AddNode/AddEdge's router duplicate
// checks — the router deliberately still knows the demoted IDs — but
// keeps their rule that an edge joins two of the trace's nodes; a record
// whose ID repeats is filed once. It takes ownership of nodes and edges.
// On an error the graph is unchanged.
// Restoring over a resident shard is an error; the store serializes
// demotion and promotion so the case is always a caller bug.
func (g *Graph) RestoreTrace(appID string, nodes []*Node, edges []*Edge, ver uint64) error {
	if g.frozen {
		return ErrFrozen
	}
	if g.shard(appID) != nil {
		return fmt.Errorf("provenance: restore of resident trace %s", appID)
	}
	sh, err := buildShard(appID, nodes, edges)
	if err != nil {
		return err
	}
	sh.epoch, sh.ver = g.traces.Epoch(), ver
	g.traces.Set(appID, sh)
	for _, n := range sh.nodes {
		g.router.put(n.ID, appID)
	}
	for _, e := range sh.edges {
		g.router.put(e.ID, appID)
	}
	g.nNodes += len(sh.nodes)
	g.nEdges += len(sh.edges)
	return nil
}

// SetTraceVersion pins a trace's version counter. Log replay uses it to
// apply the opTraceVer entries promotion writes; outside replay the
// counter only ever moves through mutations.
func (g *Graph) SetTraceVersion(appID string, ver uint64) error {
	if g.frozen {
		return ErrFrozen
	}
	g.shardForWrite(appID).ver = ver
	return nil
}

// TraceLastTouch returns the commit sequence recorded by the newest
// SetTraceLastTouch on the trace in this graph version: the demotion
// policy's coldness signal and the validity bound of as-of reads. Zero
// means the trace is absent (or was never stamped).
func (g *Graph) TraceLastTouch(appID string) uint64 {
	sh := g.shard(appID)
	if sh == nil {
		return 0
	}
	return sh.touch
}

// SetTraceLastTouch stamps a resident trace with the commit sequence of
// the mutation (or promotion) the store just applied to it. No-op on an
// absent trace — the stamp describes records, and there are none — and on
// frozen graphs.
func (g *Graph) SetTraceLastTouch(appID string, seq uint64) {
	if !g.frozen && g.shard(appID) != nil {
		g.shardForWrite(appID).touch = seq
	}
}

// AppIDs returns the distinct trace identifiers present in the graph,
// sorted lexicographically.
func (g *Graph) AppIDs() []string {
	var ids []string
	g.eachShard(func(app string, _ *traceShard) { ids = append(ids, app) })
	sort.Strings(ids)
	return ids
}

// Census summarizes a graph for tests and the experiment harness: node
// counts per class and edge counts per type.
type Census struct {
	Nodes     int
	Edges     int
	ByClass   map[Class]int
	ByType    map[string]int // node type -> count
	EdgeTypes map[string]int // edge type -> count
}

// TakeCensus computes the census of the graph.
func (g *Graph) TakeCensus() Census {
	c := Census{
		Nodes:     g.nNodes,
		Edges:     g.nEdges,
		ByClass:   make(map[Class]int),
		ByType:    make(map[string]int),
		EdgeTypes: make(map[string]int),
	}
	g.eachShard(func(_ string, sh *traceShard) {
		for _, n := range sh.nodes {
			c.ByClass[n.Class]++
			c.ByType[n.Type]++
		}
		for _, e := range sh.edges {
			c.EdgeTypes[e.Type]++
		}
	})
	return c
}
