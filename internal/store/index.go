package store

import (
	"slices"

	"repro/internal/pmap"
	"repro/internal/provenance"
)

// indexSet maintains the secondary attribute indexes declared by the data
// model (FieldDef.Indexed): for each (node type, field) pair, a persistent
// map from value key to the sorted set of node IDs carrying that value.
// Only the cross-trace query planner (query.Plan, GET /query) reads them;
// rule binding scans one trace's NodesByType instead.
//
// snapshot() shares every map, a mutation copies the trie path it touches,
// and posting-list updates always build a fresh slice. Published slices
// are therefore immutable, which lets lookup return them without copying.
type indexSet struct {
	fields map[string][]indexField // node type -> its indexed fields; fixed
	vals   []pmap.Map[[]string]    // value key -> sorted node IDs
}

// indexField is one indexed field of a node type and the index of its map
// in vals.
type indexField struct {
	name string
	i    int
}

// newIndexSet creates an empty index for every (type, field) pair the
// model declares Indexed.
func newIndexSet(m *provenance.Model) *indexSet {
	x := &indexSet{fields: make(map[string][]indexField)}
	if m != nil {
		tfs := m.IndexedFields()
		for i, tf := range tfs {
			x.fields[tf[0]] = append(x.fields[tf[0]], indexField{tf[1], i})
		}
		x.vals = make([]pmap.Map[[]string], len(tfs))
	}
	return x
}

// snapshot returns a frozen copy sharing every map.
func (x *indexSet) snapshot() *indexSet {
	snap := &indexSet{fields: x.fields, vals: make([]pmap.Map[[]string], len(x.vals))}
	for i := range x.vals {
		snap.vals[i] = x.vals[i].Snapshot()
	}
	return snap
}

// index returns the map of (type, field), or nil when it is not indexed.
func (x *indexSet) index(typ, field string) *pmap.Map[[]string] {
	for _, f := range x.fields[typ] {
		if f.name == field {
			return &x.vals[f.i]
		}
	}
	return nil
}

// add indexes every indexed attribute the node carries; remove unindexes
// them (on update, before re-adding, and on eviction).
func (x *indexSet) add(n *provenance.Node)    { x.edit(n, true, nil) }
func (x *indexSet) remove(n *provenance.Node) { x.edit(n, false, nil) }

// addTrace adds a trace's nodes. A posting list that holds one node alone
// is a one-element slice, capped, of one array of the trace's node IDs, so
// a trace of unique values costs one allocation, not one a value.
func (x *indexSet) addTrace(nodes []*provenance.Node) {
	if len(x.vals) == 0 {
		return
	}
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
		x.edit(n, true, ids[i:i+1:i+1])
	}
}

// edit adds n's ID to, or removes it from, the posting list of every
// indexed attribute n carries. A changed list is a fresh slice: the old
// one may be visible in published snapshots. alone, when set, is the list
// holding n's ID alone, used for a value no other node carries.
func (x *indexSet) edit(n *provenance.Node, add bool, alone []string) {
	if n == nil {
		return
	}
	for _, f := range x.fields[n.Type] {
		ix := &x.vals[f.i]
		key := n.Attr(f.name).Key()
		if key == "" {
			continue // absent, or NaN: equal to nothing
		}
		ids, _ := ix.Get(key)
		pos, found := slices.BinarySearch(ids, n.ID)
		switch {
		case found == add:
		case add && len(ids) == 0 && alone != nil:
			ix.Set(key, alone)
		case add:
			ix.Set(key, slices.Concat(ids[:pos], []string{n.ID}, ids[pos:]))
		case len(ids) == 1:
			ix.Delete(key)
		default:
			ix.Set(key, slices.Concat(ids[:pos], ids[pos+1:]))
		}
	}
}

// lookup returns the IDs indexed under (type, field, value) and whether an
// index exists for the pair. The returned slice is immutable — posting
// lists are never mutated in place — so callers may retain it but must
// not modify it.
func (x *indexSet) lookup(typ, field string, v provenance.Value) ([]string, bool) {
	ix := x.index(typ, field)
	if ix == nil {
		return nil, false
	}
	key := v.Key()
	if key == "" {
		return nil, true
	}
	ids, _ := ix.Get(key)
	return ids, true
}

// size reports the number of declared indexes.
func (x *indexSet) size() int { return len(x.vals) }
