package provenance

import (
	"fmt"
	"slices"
	"sort"
)

// Attr is one named attribute of a record.
type Attr struct {
	Name  string
	Value Value
}

// Attrs is a record's attribute set: a slice sorted by name, each name at
// most once. A record pays for the attributes it has and nothing more, a
// copy is one slice copy, and the codecs read and write it in order. Build
// one with Set (or AttrsOf); a literal must list its names in order, which
// the records' Validate checks.
type Attrs []Attr

// AttrsOf builds the attribute set of m.
func AttrsOf(m map[string]Value) Attrs {
	if len(m) == 0 {
		return nil
	}
	a := make(Attrs, 0, len(m))
	for name, v := range m {
		a = append(a, Attr{name, v})
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Name < a[j].Name })
	return a
}

// search returns the position of name, or where it would be inserted.
func (a Attrs) search(name string) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if a[m].Name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(a) && a[lo].Name == name
}

// Get returns the named attribute, or an absent Value.
func (a Attrs) Get(name string) Value {
	if i, ok := a.search(name); ok {
		return a[i].Value
	}
	return Value{}
}

// Set sets the named attribute in place, keeping the set sorted.
func (a *Attrs) Set(name string, v Value) {
	if i, ok := a.search(name); ok {
		(*a)[i].Value = v
	} else {
		*a = slices.Insert(*a, i, Attr{name, v})
	}
}

// validate reports an attribute out of name order or a name given twice
// in the attributes of the record kind id.
func (a Attrs) validate(kind, id string) error {
	for i := 1; i < len(a); i++ {
		if a[i-1].Name >= a[i].Name {
			return fmt.Errorf("provenance: %s %s: attribute %q follows %q: names must be sorted and unique",
				kind, id, a[i].Name, a[i-1].Name)
		}
	}
	return nil
}
