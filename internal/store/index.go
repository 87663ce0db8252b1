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
	fields map[indexKey]int     // (type, field) -> its map in vals; fixed
	vals   []pmap.Map[[]string] // value key -> sorted node IDs
}

type indexKey struct {
	typ   string
	field string
}

// newIndexSet creates an empty index for every (type, field) pair the
// model declares Indexed.
func newIndexSet(m *provenance.Model) *indexSet {
	x := &indexSet{fields: make(map[indexKey]int)}
	if m != nil {
		for i, tf := range m.IndexedFields() {
			x.fields[indexKey{tf[0], tf[1]}] = i
		}
		x.vals = make([]pmap.Map[[]string], len(x.fields))
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
	i, ok := x.fields[indexKey{typ, field}]
	if !ok {
		return nil
	}
	return &x.vals[i]
}

// add indexes every indexed attribute the node carries; remove unindexes
// them (on update, before re-adding, and on eviction).
func (x *indexSet) add(n *provenance.Node)    { x.edit(n, true) }
func (x *indexSet) remove(n *provenance.Node) { x.edit(n, false) }

// edit adds n's ID to, or removes it from, the posting list of every
// indexed attribute n carries. A changed list is a fresh slice: the old
// one may be visible in published snapshots.
func (x *indexSet) edit(n *provenance.Node, add bool) {
	if n == nil {
		return
	}
	for _, a := range n.Attrs {
		ix := x.index(n.Type, a.Name)
		if ix == nil {
			continue
		}
		key := a.Value.Key()
		if key == "" {
			continue // absent, or NaN: equal to nothing
		}
		ids, _ := ix.Get(key)
		pos, found := slices.BinarySearch(ids, n.ID)
		switch {
		case found == add:
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
