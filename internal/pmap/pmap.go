// Package pmap is a persistent hash map from strings to values: a 32-way
// hash array mapped trie (Bagwell, "Ideal Hash Trees", 2001) whose nodes
// keep leaves and sub-tries in two arrays (the CHAMP layout of Steindorfer
// and Vinju, 2015), so a node near the root is 32 pointers.
//
// Each node carries the epoch that owns it. A write changes in place the
// nodes its map's epoch owns and copies the others on the path to the key,
// about log₃₂ n of them. Snapshot is a struct copy after which neither copy
// owns anything. A delete lifts a lone leaf into its parent and drops the
// node it leaves, so a shrinking map gives its nodes back.
//
// Writes need one writer; a Map nobody writes needs no lock. Copy a Map
// only through Snapshot: two plain copies would own the same nodes.
package pmap

import (
	"hash/maphash"
	"math/bits"
	"slices"
	"sync/atomic"
)

const (
	levelBits = 5
	// hashBits is where the trie ends: a node there lists keys whose
	// hashes are equal.
	hashBits = 64
)

var seed = maphash.MakeSeed()

// hash places keys in the trie. Tests replace it to force collisions.
var hash = func(k string) uint64 { return maphash.String(seed, k) }

// epochs issues each map its epochs. Zero is never issued: a map with no
// epoch owns nothing.
var epochs atomic.Uint64

// Map is a persistent map from string keys to values of type V. The zero
// Map is empty and ready to use.
type Map[V any] struct {
	root  *node[V]
	n     int
	epoch uint64
}

// node is one level of the trie. Above hashBits, bit d of leafMap (kidMap)
// says that hash digit d at this level holds a leaf (a sub-trie); leaves
// and kids hold them in digit order. At hashBits the maps mean nothing and
// leaves lists the keys.
type node[V any] struct {
	epoch           uint64
	leafMap, kidMap uint32
	leaves          []leaf[V]
	kids            []*node[V]
}

type leaf[V any] struct {
	key string
	val V
}

// digit returns the bitmap bit of h's digit at shift.
func digit(h uint64, shift uint) uint32 { return 1 << (h >> shift & (1<<levelBits - 1)) }

// at returns the position of bit's entry among those bitmap marks.
func at(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

// find returns the position of k in a list of colliding keys, or -1.
func (n *node[V]) find(k string) int {
	return slices.IndexFunc(n.leaves, func(l leaf[V]) bool { return l.key == k })
}

// Len returns the number of keys.
func (m *Map[V]) Len() int { return m.n }

// Epoch returns the epoch that owns m's nodes, issuing one if m has none.
// A value stored in m may carry it to share the rule: it may change in
// place while it carries m's epoch, and is copied first once a Snapshot
// has moved the epoch on.
func (m *Map[V]) Epoch() uint64 {
	if m.epoch == 0 {
		m.epoch = epochs.Add(1)
	}
	return m.epoch
}

// Snapshot returns a copy of m sharing all its nodes.
func (m *Map[V]) Snapshot() Map[V] {
	s := *m
	s.epoch, m.epoch = 0, 0
	return s
}

// Get returns the value stored under k.
func (m *Map[V]) Get(k string) (V, bool) {
	h := hash(k)
	n, shift := m.root, uint(0)
	for ; n != nil && shift < hashBits; shift += levelBits {
		bit := digit(h, shift)
		if n.leafMap&bit != 0 {
			if l := &n.leaves[at(n.leafMap, bit)]; l.key == k {
				return l.val, true
			}
			n = nil
		} else if n.kidMap&bit != 0 {
			n = n.kids[at(n.kidMap, bit)]
		} else {
			n = nil
		}
	}
	if n != nil {
		if i := n.find(k); i >= 0 {
			return n.leaves[i].val, true
		}
	}
	var zero V
	return zero, false
}

// Range calls fn for every key and value, in no particular order. fn must
// not write to m.
func (m *Map[V]) Range(fn func(k string, v V)) { each(m.root, fn) }

func each[V any](n *node[V], fn func(string, V)) {
	if n == nil {
		return
	}
	for _, l := range n.leaves {
		fn(l.key, l.val)
	}
	for _, c := range n.kids {
		each(c, fn)
	}
}

// Set stores v under k.
func (m *Map[V]) Set(k string, v V) {
	var added bool
	m.root, added = m.set(m.root, 0, hash(k), leaf[V]{k, v})
	if added {
		m.n++
	}
}

// set stores l in the sub-trie n at shift and returns the sub-trie's new
// root and whether the key is new.
func (m *Map[V]) set(n *node[V], shift uint, h uint64, l leaf[V]) (*node[V], bool) {
	if n == nil {
		return &node[V]{epoch: m.Epoch(), leafMap: digit(h, shift), leaves: []leaf[V]{l}}, true
	}
	bit := digit(h, shift)
	if shift < hashBits && n.kidMap&bit != 0 {
		i := at(n.kidMap, bit)
		c, added := m.set(n.kids[i], shift+levelBits, h, l)
		if c != n.kids[i] {
			n = m.own(n)
			n.kids[i] = c
		}
		return n, added
	}
	n = m.own(n)
	i := at(n.leafMap, bit)
	switch {
	case shift >= hashBits:
		if i = n.find(l.key); i < 0 {
			n.leaves = append(n.leaves, l)
			return n, true
		}
	case n.leafMap&bit == 0:
		n.leafMap |= bit
		n.leaves = slices.Insert(n.leaves, i, l)
		return n, true
	case n.leaves[i].key != l.key:
		// Another key holds the digit: both go one level down.
		c, _ := m.set(nil, shift+levelBits, hash(n.leaves[i].key), n.leaves[i])
		c, _ = m.set(c, shift+levelBits, h, l)
		n.leafMap &^= bit
		n.leaves = shrink(slices.Delete(n.leaves, i, i+1))
		n.kidMap |= bit
		n.kids = slices.Insert(n.kids, at(n.kidMap, bit), c)
		return n, true
	}
	n.leaves[i].val = l.val
	return n, false
}

// Delete removes k and reports whether it was present.
func (m *Map[V]) Delete(k string) bool {
	root, ok := m.del(m.root, 0, hash(k), k)
	if ok {
		m.root = root
		m.n--
	}
	return ok
}

// del removes k from the sub-trie n at shift and returns the sub-trie's
// new root, nil when it is left empty. Below the root a sub-trie holds two
// keys or more, because del lifts a lone leaf into the parent.
func (m *Map[V]) del(n *node[V], shift uint, h uint64, k string) (*node[V], bool) {
	if n == nil {
		return nil, false
	}
	bit := digit(h, shift)
	if shift < hashBits && n.kidMap&bit != 0 {
		i := at(n.kidMap, bit)
		c, ok := m.del(n.kids[i], shift+levelBits, h, k)
		switch {
		case !ok:
			return n, false
		case len(c.leaves) == 1 && len(c.kids) == 0:
			n = m.own(n)
			n.kidMap &^= bit
			n.kids = shrink(slices.Delete(n.kids, i, i+1))
			n.leafMap |= bit
			n.leaves = slices.Insert(n.leaves, at(n.leafMap, bit), c.leaves[0])
		case c != n.kids[i]:
			n = m.own(n)
			n.kids[i] = c
		}
		return n, true
	}
	i := at(n.leafMap, bit)
	switch {
	case shift >= hashBits:
		i = n.find(k)
	case n.leafMap&bit == 0 || n.leaves[i].key != k:
		i = -1
	}
	switch {
	case i < 0:
		return n, false
	case len(n.leaves) == 1 && len(n.kids) == 0:
		return nil, true
	}
	n = m.own(n)
	n.leafMap &^= bit
	n.leaves = shrink(slices.Delete(n.leaves, i, i+1))
	return n, true
}

// own returns n if m's epoch owns it, else a copy m's epoch owns, its
// leaves with room for one more.
func (m *Map[V]) own(n *node[V]) *node[V] {
	if n.epoch == m.Epoch() {
		return n
	}
	c := *n
	c.epoch = m.epoch
	if len(n.leaves) > 0 {
		c.leaves = append(make([]leaf[V], 0, len(n.leaves)+1), n.leaves...)
	}
	c.kids = slices.Clone(n.kids)
	return &c
}

// shrink gives back the array of a slice deletes have left mostly empty.
func shrink[T any](s []T) []T {
	if cap(s) > 4*len(s) {
		return slices.Clone(s)
	}
	return s
}
