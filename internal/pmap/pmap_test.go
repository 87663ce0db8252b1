package pmap

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"testing"
)

// withHash runs the test with h placing the keys.
func withHash(t *testing.T, h func(string) uint64) {
	old := hash
	hash = h
	t.Cleanup(func() { hash = old })
}

// hashes are the key placements the model test runs under: the real one,
// one where every key shares its hash with about 1 in 64 others (full-hash
// collisions, searched as lists at the bottom of the trie), and one whose
// low 40 bits are zero, so keys share the first eight levels and hang off
// chains of one-slot nodes.
var hashes = map[string]func(string) uint64{
	"maphash":   func(k string) uint64 { return seeded(k) },
	"collide":   func(k string) uint64 { return seeded(k) % 64 },
	"prefix-40": func(k string) uint64 { return seeded(k) << 40 },
}

var seeded = hash

type version struct {
	m     Map[int]
	model map[string]int
}

// TestMapAgainstModel runs a seeded random sequence of puts, deletes,
// snapshots, writes to snapshots and ranges against a Go map. Every
// retained version must still equal the model's copy from its own time
// after all later writes, to it and to every other version.
func TestMapAgainstModel(t *testing.T) {
	for name, h := range hashes {
		t.Run(name, func(t *testing.T) {
			withHash(t, h)
			rng := rand.New(rand.NewSource(7))
			cur := &version{model: map[string]int{}}
			var kept []*version
			for op := 0; op < 20000; op++ {
				k := fmt.Sprintf("k%d", rng.Intn(1500))
				switch r := rng.Intn(100); {
				case r < 55:
					cur.m.Set(k, op)
					cur.model[k] = op
				case r < 90:
					_, want := cur.model[k]
					if got := cur.m.Delete(k); got != want {
						t.Fatalf("op %d: Delete(%s) = %v, want %v", op, k, got, want)
					}
					delete(cur.model, k)
				case r < 97:
					kept = append(kept, &version{m: cur.m.Snapshot(), model: maps.Clone(cur.model)})
				default:
					// Write to a retained version: it forks from its
					// successors and must not disturb them.
					if len(kept) > 0 {
						v := kept[rng.Intn(len(kept))]
						v.m.Set(k, -op)
						v.model[k] = -op
						v.m.Delete("k0")
						delete(v.model, "k0")
					}
				}
				if op%1000 == 0 {
					same(t, &cur.m, cur.model)
				}
			}
			same(t, &cur.m, cur.model)
			for i, v := range kept {
				if !equal(&v.m, v.model) {
					t.Fatalf("version %d of %d changed after later writes", i, len(kept))
				}
				canonical(t, &v.m)
			}
			// Delete to empty: nothing is left of the trie, and it refills.
			for k := range cur.model {
				cur.m.Delete(k)
			}
			if cur.m.Len() != 0 || cur.m.root != nil {
				t.Fatalf("after deleting every key: Len %d, root %v", cur.m.Len(), cur.m.root)
			}
			if cur.m.Delete("k1") {
				t.Fatal("Delete on an empty map reported a key")
			}
			cur.m.Set("k1", 1)
			same(t, &cur.m, map[string]int{"k1": 1})
		})
	}
}

// same fails the test unless m holds exactly model.
func same(t *testing.T, m *Map[int], model map[string]int) {
	t.Helper()
	if !equal(m, model) {
		got := map[string]int{}
		m.Range(func(k string, v int) { got[k] = v })
		t.Fatalf("map holds %d keys (Len %d), model %d; first difference in %v", len(got), m.Len(), len(model), firstDiff(got, model))
	}
	canonical(t, m)
}

func equal(m *Map[int], model map[string]int) bool {
	if m.Len() != len(model) {
		return false
	}
	for k, want := range model {
		if got, ok := m.Get(k); !ok || got != want {
			return false
		}
	}
	n, ok := 0, true
	m.Range(func(k string, v int) {
		n++
		if want, in := model[k]; !in || want != v {
			ok = false
		}
	})
	return ok && n == len(model)
}

func firstDiff(got, want map[string]int) string {
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			return fmt.Sprintf("key %s: got %d (%v), want %d", k, g, ok, v)
		}
	}
	for k, v := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("key %s = %d not in the model", k, v)
		}
	}
	return "nothing"
}

// canonical checks the shape every sequence of writes must leave: the
// bitmaps count the leaves and sub-tries and never mark one digit twice,
// every key sits where its hash leads, and below the root no node holds a
// lone leaf or fewer than two keys, so the trie of a key set does not
// depend on the keys it once held.
func canonical(t *testing.T, m *Map[int]) {
	t.Helper()
	var walk func(n *node[int], shift uint, prefix uint64, root bool) int
	walk = func(n *node[int], shift uint, prefix uint64, root bool) int {
		if shift < hashBits && (bits.OnesCount32(n.leafMap) != len(n.leaves) ||
			bits.OnesCount32(n.kidMap) != len(n.kids) || n.leafMap&n.kidMap != 0) {
			t.Fatalf("node at shift %d: maps %032b, %032b for %d leaves, %d sub-tries", shift, n.leafMap, n.kidMap, len(n.leaves), len(n.kids))
		}
		if !root && len(n.leaves) == 1 && len(n.kids) == 0 {
			t.Fatalf("node at shift %d holds a lone leaf", shift)
		}
		// The digits of the keys under n below shift are prefix; a leaf
		// adds its own digit at shift, which its hash must share.
		mask := ^uint64(0)
		if shift+levelBits < hashBits {
			mask = 1<<(shift+levelBits) - 1
		}
		keys := len(n.leaves)
		for i, l := range n.leaves {
			p := prefix
			if shift < hashBits {
				p |= uint64(nthSet(n.leafMap, i)) << shift
			}
			if hash(l.key)&mask != p&mask {
				t.Fatalf("key %s at shift %d under prefix %x, hash %x", l.key, shift, p, hash(l.key))
			}
		}
		for i, c := range n.kids {
			keys += walk(c, shift+levelBits, prefix|uint64(nthSet(n.kidMap, i))<<shift, false)
		}
		if !root && keys < 2 {
			t.Fatalf("sub-trie at shift %d holds %d keys", shift, keys)
		}
		return keys
	}
	if m.root == nil {
		if m.Len() != 0 {
			t.Fatalf("no root, Len %d", m.Len())
		}
		return
	}
	if n := walk(m.root, 0, 0, true); n != m.Len() {
		t.Fatalf("trie holds %d keys, Len %d", n, m.Len())
	}
}

// nthSet returns the position of the i-th set bit of b.
func nthSet(b uint32, i int) int {
	for ; i > 0; i-- {
		b &= b - 1
	}
	return bits.TrailingZeros32(b)
}

// TestDeleteGivesNodesBack: a trie that held many keys and lost most of
// them is no larger than one that only ever held the survivors.
func TestDeleteGivesNodesBack(t *testing.T) {
	var big, small Map[int]
	for i := 0; i < 20000; i++ {
		big.Set(fmt.Sprint(i), i)
		if i%10 == 0 {
			small.Set(fmt.Sprint(i), i)
		}
		if i%1000 == 0 {
			big.Snapshot() // later writes copy paths, as after a publish
		}
	}
	for i := 0; i < 20000; i++ {
		if i%10 != 0 {
			big.Delete(fmt.Sprint(i))
		}
	}
	nb, sb := footprint(big.root), footprint(small.root)
	if nb[0] != sb[0] || nb[1] > 2*sb[1] {
		t.Fatalf("after deleting 90%%: %d nodes, capacity for %d entries; built from the survivors: %d, %d", nb[0], nb[1], sb[0], sb[1])
	}
}

// footprint returns the number of nodes and their total capacity for
// leaves and sub-tries.
func footprint(n *node[int]) [2]int {
	if n == nil {
		return [2]int{}
	}
	f := [2]int{1, cap(n.leaves) + cap(n.kids)}
	for _, c := range n.kids {
		g := footprint(c)
		f[0] += g[0]
		f[1] += g[1]
	}
	return f
}

// TestSnapshotWriteCopiesOnePath: the first write after a snapshot copies
// only the nodes on the key's path; the next write to the same path copies
// nothing.
func TestSnapshotWriteCopiesOnePath(t *testing.T) {
	var m Map[int]
	for i := 0; i < 50000; i++ {
		m.Set(fmt.Sprint(i), i)
	}
	snap := m.Snapshot()
	first := testing.AllocsPerRun(10, func() {
		m.Snapshot()
		m.Set("7", -1)
	})
	again := testing.AllocsPerRun(10, func() { m.Set("7", -2) })
	// 50,000 keys sit about four levels deep in a 32-way trie; a copied
	// node is at most three allocations: itself, its leaves, its sub-tries.
	if first == 0 || first > 12 || again != 0 {
		t.Fatalf("Set after Snapshot: %v allocs, then %v; want 1 to 12, then 0", first, again)
	}
	if v, _ := snap.Get("7"); v != 7 {
		t.Fatalf("snapshot sees %d, want 7", v)
	}
}
