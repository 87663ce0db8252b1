// Package xom implements the execution object model of Section II-D: an
// executable object model generated from the provenance data model, so
// that "the nodes and the edges of the graph and their attributes are
// directly linked to XOM objects through getters and setters".
//
// In the paper the XOM is a set of Java classes. Here a Class is a runtime
// descriptor with typed field accessors over provenance nodes, optional
// registered methods (the paper's getManagerGen hashtable example), and
// relation accessors that navigate graph edges. The business object model
// (package bom) verbalizes these members into navigation and action
// phrases, and the rule engine (package rules) resolves phrases back to
// them at compile time.
package xom

import (
	"fmt"

	"repro/internal/provenance"
)

// ObjectModel is the executable object model generated from a provenance
// data model: one Class per node type, plus relation accessors.
type ObjectModel struct {
	model   *provenance.Model
	classes map[string]*Class
	order   []string
}

// Class is the runtime descriptor of one node type.
type Class struct {
	// Name is the class name, identical to the provenance node type.
	Name string
	// NodeClass is the provenance record class of instances.
	NodeClass provenance.Class

	fields    map[string]*Field
	methods   map[string]*Method
	relations map[string]*Relation
	fOrder    []string
	mOrder    []string
	rOrder    []string
}

// Field is a typed attribute accessor (the XOM getter for a data member).
type Field struct {
	// Name is the attribute name in the provenance record.
	Name string
	// Kind is the declared attribute kind.
	Kind provenance.Kind
}

// Get reads the field from an instance. An absent attribute yields the
// zero Value — three-valued rule evaluation treats it as unknown.
func (f *Field) Get(n *provenance.Node) provenance.Value {
	return n.Attr(f.Name)
}

// Method is a registered computation on instances, mirroring the paper's
// action-phrase methods such as getManagerGen. Methods take the instance's
// node and the graph (so they may consult other records) and return a
// value; returning the zero Value means "unknown".
type Method struct {
	// Name identifies the method within its class.
	Name string
	// Kind is the result kind.
	Kind provenance.Kind
	// Fn computes the result.
	Fn func(g *provenance.Graph, n *provenance.Node) (provenance.Value, error)
}

// Relation is a navigation accessor over graph edges: from an instance of
// the owning class, follow edges of EdgeType in Dir to reach instances of
// TargetType.
type Relation struct {
	// Name identifies the accessor ("submitterOf").
	Name string
	// EdgeType is the provenance relation type followed.
	EdgeType string
	// Dir orients the traversal relative to the instance.
	Dir provenance.Direction
	// TargetType is the node type reached (may be empty = any).
	TargetType string
}

// FromModel generates the object model: every node type becomes a Class
// with one Field per declared field; every relation declaration becomes a
// pair of navigation accessors (forward on the source class, reverse on
// the target class when both endpoint types are declared).
func FromModel(m *provenance.Model) (*ObjectModel, error) {
	if m == nil {
		return nil, fmt.Errorf("xom: nil model")
	}
	om := &ObjectModel{model: m, classes: make(map[string]*Class)}
	for _, t := range m.Types() {
		c := &Class{
			Name:      t.Name,
			NodeClass: t.Class,
			fields:    make(map[string]*Field),
			methods:   make(map[string]*Method),
			relations: make(map[string]*Relation),
		}
		for _, fd := range t.Fields() {
			c.fields[fd.Name] = &Field{Name: fd.Name, Kind: fd.Kind}
			c.fOrder = append(c.fOrder, fd.Name)
		}
		om.classes[c.Name] = c
		om.order = append(om.order, c.Name)
	}
	for _, r := range m.Relations() {
		if r.SourceType != "" {
			src := om.classes[r.SourceType]
			if err := src.addRelation(&Relation{
				Name: r.Name, EdgeType: r.Name, Dir: provenance.Out, TargetType: r.TargetType,
			}); err != nil {
				return nil, err
			}
		}
		if r.TargetType != "" {
			dst := om.classes[r.TargetType]
			if err := dst.addRelation(&Relation{
				Name: inverseName(r.Name), EdgeType: r.Name, Dir: provenance.In, TargetType: r.SourceType,
			}); err != nil {
				return nil, err
			}
		}
	}
	return om, nil
}

// inverseName names the reverse accessor for a relation.
func inverseName(rel string) string { return rel + "Inverse" }

func (c *Class) addRelation(r *Relation) error {
	if _, ok := c.relations[r.Name]; ok {
		return fmt.Errorf("xom: class %s: duplicate relation accessor %s", c.Name, r.Name)
	}
	c.relations[r.Name] = r
	c.rOrder = append(c.rOrder, r.Name)
	return nil
}

// Model returns the underlying provenance data model.
func (om *ObjectModel) Model() *provenance.Model { return om.model }

// Class returns the class descriptor for a node type, or nil.
func (om *ObjectModel) Class(name string) *Class { return om.classes[name] }

// Classes returns every class in model declaration order.
func (om *ObjectModel) Classes() []*Class {
	res := make([]*Class, 0, len(om.order))
	for _, n := range om.order {
		res = append(res, om.classes[n])
	}
	return res
}

// RegisterMethod attaches a method to a class, as the paper attaches
// getManagerGen to jobRequisition.
func (om *ObjectModel) RegisterMethod(className string, m *Method) error {
	c := om.classes[className]
	if c == nil {
		return fmt.Errorf("xom: method %s on unknown class %s", m.Name, className)
	}
	if m.Name == "" {
		return fmt.Errorf("xom: class %s: method with empty name", className)
	}
	if m.Kind == provenance.KindInvalid {
		return fmt.Errorf("xom: method %s.%s has invalid result kind", className, m.Name)
	}
	if m.Fn == nil {
		return fmt.Errorf("xom: method %s.%s has nil body", className, m.Name)
	}
	if _, ok := c.methods[m.Name]; ok {
		return fmt.Errorf("xom: class %s: duplicate method %s", className, m.Name)
	}
	if _, ok := c.fields[m.Name]; ok {
		return fmt.Errorf("xom: class %s: method %s collides with a field", className, m.Name)
	}
	c.methods[m.Name] = m
	c.mOrder = append(c.mOrder, m.Name)
	return nil
}

// LookupTableMethod builds a method that resolves a key attribute through
// a fixed table — the paper's hashtable-backed getManagerGen, where dept
// and managerGen are the <key, value> pairs.
func LookupTableMethod(name string, keyField string, table map[string]string) *Method {
	// Copy the table so later caller mutations cannot change semantics.
	own := make(map[string]string, len(table))
	for k, v := range table {
		own[k] = v
	}
	return &Method{
		Name: name,
		Kind: provenance.KindString,
		Fn: func(_ *provenance.Graph, n *provenance.Node) (provenance.Value, error) {
			key := n.Attr(keyField)
			if key.IsZero() {
				return provenance.Value{}, nil
			}
			v, ok := own[key.Str()]
			if !ok {
				return provenance.Value{}, nil
			}
			return provenance.String(v), nil
		},
	}
}

// Field returns the field accessor, or nil.
func (c *Class) Field(name string) *Field { return c.fields[name] }

// Method returns the method, or nil.
func (c *Class) Method(name string) *Method { return c.methods[name] }

// Relation returns the navigation accessor, or nil.
func (c *Class) Relation(name string) *Relation { return c.relations[name] }

// Fields returns the field accessors in declaration order.
func (c *Class) Fields() []*Field {
	res := make([]*Field, 0, len(c.fOrder))
	for _, n := range c.fOrder {
		res = append(res, c.fields[n])
	}
	return res
}

// Methods returns the registered methods in registration order.
func (c *Class) Methods() []*Method {
	res := make([]*Method, 0, len(c.mOrder))
	for _, n := range c.mOrder {
		res = append(res, c.methods[n])
	}
	return res
}

// Relations returns the navigation accessors in declaration order.
func (c *Class) Relations() []*Relation {
	res := make([]*Relation, 0, len(c.rOrder))
	for _, n := range c.rOrder {
		res = append(res, c.relations[n])
	}
	return res
}

// Navigate follows a relation accessor from an instance node, returning
// the reached nodes sorted by ID. Nodes of the wrong type are filtered out
// (edges are typed, but an unconstrained relation may reach several).
func Navigate(g *provenance.Graph, n *provenance.Node, r *Relation) []*provenance.Node {
	if g == nil || n == nil || r == nil {
		return nil
	}
	// Neighbors hands back a fresh slice already sorted by ID, so the
	// filter runs in place and keeps the order.
	nbrs := g.Neighbors(n.ID, r.Dir, r.EdgeType)
	if r.TargetType == "" {
		return nbrs
	}
	res := nbrs[:0]
	for _, m := range nbrs {
		if m.Type == r.TargetType {
			res = append(res, m)
		}
	}
	return res
}

// Call invokes a method on an instance node.
func Call(g *provenance.Graph, n *provenance.Node, m *Method) (provenance.Value, error) {
	if m == nil || m.Fn == nil {
		return provenance.Value{}, fmt.Errorf("xom: nil method")
	}
	if n == nil {
		return provenance.Value{}, nil
	}
	return m.Fn(g, n)
}
