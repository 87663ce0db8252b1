package provenance

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Property: any sequence of Set calls leaves the attributes a map of the
// same writes would hold — sorted by name, each name once, the last write
// winning — and Get reads what the map reads.
func TestAttrsSetMatchesMap(t *testing.T) {
	names := []string{"a", "b", "reqID", "Z", "名前", "x-y", "", "aa", "a\x00"}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 500; round++ {
		var a Attrs
		want := map[string]Value{}
		for k := rng.Intn(12); k > 0; k-- {
			name := names[rng.Intn(len(names))]
			v := Int(rng.Int63n(5))
			if rng.Intn(4) == 0 {
				v = Value{}
			}
			a.Set(name, v)
			want[name] = v
		}
		n := &Node{ID: "n", Class: ClassData, Type: "doc", AppID: "A", Attrs: a}
		if err := n.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(a) != len(want) {
			t.Fatalf("round %d: %d attributes, the map holds %d", round, len(a), len(want))
		}
		if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i].Name < a[j].Name }) {
			t.Fatalf("round %d: %v is not sorted", round, a)
		}
		for _, name := range names {
			if got, w := a.Get(name), want[name]; got != w {
				t.Fatalf("round %d: Get(%q) = %v, the map says %v", round, name, got, w)
			}
		}
		if of := AttrsOf(want); !slices.Equal(of, a) {
			t.Fatalf("round %d: AttrsOf = %v, Set built %v", round, of, a)
		}
	}
}

// A record's Validate rejects attributes out of name order and a name
// given twice.
func TestAttrsValidateRejectsDisorder(t *testing.T) {
	x := String("x")
	bad := map[string]Attrs{
		"unsorted":  {{Name: "b", Value: x}, {Name: "a", Value: x}},
		"duplicate": {{Name: "a", Value: x}, {Name: "a", Value: x}},
		"late dup":  {{Name: "a", Value: x}, {Name: "b", Value: x}, {Name: "b", Value: Int(1)}},
	}
	for what, a := range bad {
		n := &Node{ID: "n", Class: ClassData, Type: "doc", AppID: "A", Attrs: a}
		if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "sorted and unique") {
			t.Errorf("%s: node Validate = %v", what, err)
		}
		e := &Edge{ID: "e", Type: "rel", AppID: "A", Source: "n", Target: "m", Attrs: a}
		if err := e.Validate(); err == nil {
			t.Errorf("%s: edge Validate accepted %v", what, a)
		}
	}
	good := &Node{ID: "n", Class: ClassData, Type: "doc", AppID: "A",
		Attrs: Attrs{{Name: "", Value: x}, {Name: "a", Value: x}, {Name: "b", Value: x}}}
	if err := good.Validate(); err != nil {
		t.Errorf("sorted attributes rejected: %v", err)
	}
}

// Clone shares no backing array with the record it copies.
func TestAttrsCloneIsACopy(t *testing.T) {
	n := &Node{ID: "n", Class: ClassData, Type: "doc", AppID: "A"}
	if c := n.Clone(); c.Attrs != nil {
		t.Fatalf("clone of a record without attributes has %v", c.Attrs)
	}
	n.SetAttr("b", Int(1))
	n.SetAttr("a", Int(2))
	c := n.Clone()
	c.SetAttr("a", Int(9))
	c.SetAttr("c", Int(3))
	if n.Attr("a") != Int(2) || !n.Attr("c").IsZero() || len(n.Attrs) != 2 {
		t.Fatalf("writing the clone changed the original: %v", n)
	}
	if c.Attr("a") != Int(9) || c.Attr("b") != Int(1) || c.Attr("c") != Int(3) {
		t.Fatalf("clone = %v", c)
	}
}
