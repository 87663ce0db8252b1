package store

import (
	"sort"

	"repro/internal/provenance"
)

// indexSet maintains the secondary attribute indexes declared by the data
// model (FieldDef.Indexed): for each (node type, field) pair, a map from
// value key to the sorted set of node IDs carrying that value. Definition
// binding in the rule engine hits these indexes instead of scanning
// (design decision D4 in DESIGN.md).
//
// Like the graph, the set is copy-on-write per publish epoch (D7):
// snapshot() clones only the tiny per-index root maps, a mutation clones
// the one value bucket it touches, and posting-list updates always build a
// fresh slice. Published slices are therefore immutable, which lets lookup
// return them without copying.
type indexSet struct {
	epoch   uint64
	byField map[indexKey]*ixIndex // (type, field) -> index
}

type indexKey struct {
	typ   string
	field string
}

const ixBuckets = 64

// ixHash is an inline FNV-1a for value-bucket selection.
func ixHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// ixIndex is one declared (type, field) index, its value buckets sharded
// so an epoch clone copies ixBuckets pointers, not the whole value map.
type ixIndex struct {
	epoch   uint64
	buckets [ixBuckets]*ixBucket
}

type ixBucket struct {
	epoch uint64
	vals  map[string][]string // value key -> sorted node IDs
}

func newIndexSet() *indexSet {
	return &indexSet{byField: make(map[indexKey]*ixIndex)}
}

// snapshot returns a frozen copy sharing every index, then advances the
// working set's epoch.
func (x *indexSet) snapshot() *indexSet {
	snap := &indexSet{epoch: x.epoch, byField: make(map[indexKey]*ixIndex, len(x.byField))}
	for k, v := range x.byField {
		snap.byField[k] = v
	}
	x.epoch++
	return snap
}

// declare creates an empty index for (type, field). Only called during
// Open, before any snapshot exists.
func (x *indexSet) declare(typ, field string) {
	k := indexKey{typ, field}
	if _, ok := x.byField[k]; !ok {
		x.byField[k] = &ixIndex{epoch: x.epoch}
	}
}

// bucketForWrite returns the value bucket for key, copying the index and
// the bucket out of frozen epochs as needed.
func (x *indexSet) bucketForWrite(k indexKey, valKey string) *ixBucket {
	ix, ok := x.byField[k]
	if !ok {
		return nil
	}
	if ix.epoch != x.epoch {
		nix := &ixIndex{epoch: x.epoch, buckets: ix.buckets}
		x.byField[k] = nix
		ix = nix
	}
	bi := ixHash(valKey) % ixBuckets
	b := ix.buckets[bi]
	switch {
	case b == nil:
		b = &ixBucket{epoch: x.epoch, vals: make(map[string][]string)}
		ix.buckets[bi] = b
	case b.epoch != x.epoch:
		nb := &ixBucket{epoch: x.epoch, vals: make(map[string][]string, len(b.vals)+1)}
		for k, v := range b.vals {
			nb.vals[k] = v
		}
		b = nb
		ix.buckets[bi] = b
	}
	return b
}

// add indexes every indexed attribute the node carries.
func (x *indexSet) add(n *provenance.Node) {
	if n == nil {
		return
	}
	for field, v := range n.Attrs {
		if v.IsZero() {
			continue
		}
		b := x.bucketForWrite(indexKey{n.Type, field}, v.Key())
		if b == nil {
			continue
		}
		ids := b.vals[v.Key()]
		pos := sort.SearchStrings(ids, n.ID)
		if pos < len(ids) && ids[pos] == n.ID {
			continue
		}
		// Fresh slice: the old one may be visible in published snapshots.
		next := make([]string, 0, len(ids)+1)
		next = append(next, ids[:pos]...)
		next = append(next, n.ID)
		next = append(next, ids[pos:]...)
		b.vals[v.Key()] = next
	}
}

// remove unindexes the node's attributes (used before re-adding on update).
func (x *indexSet) remove(n *provenance.Node) {
	if n == nil {
		return
	}
	for field, v := range n.Attrs {
		if v.IsZero() {
			continue
		}
		b := x.bucketForWrite(indexKey{n.Type, field}, v.Key())
		if b == nil {
			continue
		}
		ids := b.vals[v.Key()]
		pos := sort.SearchStrings(ids, n.ID)
		if pos < len(ids) && ids[pos] == n.ID {
			if len(ids) == 1 {
				delete(b.vals, v.Key())
				continue
			}
			next := make([]string, 0, len(ids)-1)
			next = append(next, ids[:pos]...)
			next = append(next, ids[pos+1:]...)
			b.vals[v.Key()] = next
		}
	}
}

// vacuum rebuilds every value bucket's map at its current size. Go maps
// never release bucket arrays on delete, so after a mass demotion
// unindexes thousands of nodes the buckets would keep their peak
// footprint; rebuilding them returns the memory. Published snapshots
// keep their own index/bucket pointers and are untouched.
func (x *indexSet) vacuum() {
	for k, ix := range x.byField {
		nix := &ixIndex{epoch: x.epoch}
		for bi, b := range ix.buckets {
			if b == nil {
				continue
			}
			nb := &ixBucket{epoch: x.epoch, vals: make(map[string][]string, len(b.vals))}
			for vk, ids := range b.vals {
				nb.vals[vk] = ids
			}
			nix.buckets[bi] = nb
		}
		x.byField[k] = nix
	}
}

// lookup returns the IDs indexed under (type, field, value) and whether an
// index exists for the pair. The returned slice is immutable — posting
// lists are never mutated in place — so callers may retain it but must
// not modify it.
func (x *indexSet) lookup(typ, field string, v provenance.Value) ([]string, bool) {
	ix, ok := x.byField[indexKey{typ, field}]
	if !ok {
		return nil, false
	}
	b := ix.buckets[ixHash(v.Key())%ixBuckets]
	if b == nil {
		return nil, true
	}
	return b.vals[v.Key()], true
}

// size reports the number of declared indexes.
func (x *indexSet) size() int { return len(x.byField) }
