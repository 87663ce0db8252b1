package provenance

import (
	"fmt"
	"sort"
)

// Model is the provenance data model developed for a process: the node and
// relation types expected to be produced at runtime, "based on the known
// types of events that the IT systems produce" (Section II). The model is
// the schema against which internal controls run; the execution object
// model (package xom) and business vocabulary (package bom) are generated
// from it.
type Model struct {
	// Name identifies the model, e.g. "hiring".
	Name string

	types     map[string]*TypeDef
	relations map[string]*RelationDef
	order     []string // insertion order of type names, for determinism
	relOrder  []string
}

// NewModel returns an empty model with the given name.
func NewModel(name string) *Model {
	return &Model{
		Name:      name,
		types:     make(map[string]*TypeDef),
		relations: make(map[string]*RelationDef),
	}
}

// TypeDef declares a node record type: its class, and the typed fields its
// records carry.
type TypeDef struct {
	// Name is the type name used in Node.Type, e.g. "jobRequisition".
	Name string
	// Class is the node class records of this type belong to.
	Class Class
	// Doc is a one-line description surfaced in generated documentation.
	Doc string
	// Label is the business noun verbalization uses for the concept
	// ("job requisition"). Empty falls back to camel-case splitting of
	// Name. This realizes the paper's future-work item of "adding business
	// semantic into the provenance data model".
	Label string

	fields map[string]*FieldDef
	order  []string
}

// FieldDef declares a typed attribute of a node type.
type FieldDef struct {
	// Name is the attribute key used in Node.Attrs, e.g. "reqID".
	Name string
	// Kind is the attribute's primitive type.
	Kind Kind
	// Doc is a one-line description.
	Doc string
	// Label is the business phrase verbalization uses for the field
	// ("requisition ID"). Empty falls back to camel-case splitting.
	Label string
	// Indexed requests a secondary index on (type, field) in the store;
	// definition binding in the rule engine uses it (design decision D4).
	Indexed bool
}

// RelationDef declares an edge type with its permitted endpoint types.
type RelationDef struct {
	// Name is the relation type used in Edge.Type, e.g. "submitterOf".
	Name string
	// SourceType and TargetType name the node types the relation connects.
	// An empty string permits any type of the corresponding class.
	SourceType string
	TargetType string
	// Doc is a one-line description.
	Doc string
	// Label and InverseLabel are the business phrases for navigating the
	// relation forward (from the source) and backward (from the target).
	// Empty falls back to camel-case splitting.
	Label        string
	InverseLabel string
}

// AddType declares a node type. It fails on duplicates or invalid classes.
func (m *Model) AddType(t *TypeDef) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("provenance: type with empty name")
	}
	if !t.Class.IsNode() {
		return fmt.Errorf("provenance: type %s has non-node class %v", t.Name, t.Class)
	}
	if _, ok := m.types[t.Name]; ok {
		return fmt.Errorf("provenance: duplicate type %s", t.Name)
	}
	if t.fields == nil {
		t.fields = make(map[string]*FieldDef)
	}
	m.types[t.Name] = t
	m.order = append(m.order, t.Name)
	return nil
}

// AddField declares a field on an existing type.
func (m *Model) AddField(typeName string, f *FieldDef) error {
	t, ok := m.types[typeName]
	if !ok {
		return fmt.Errorf("provenance: field %s on unknown type %s", f.Name, typeName)
	}
	return t.addField(f)
}

func (t *TypeDef) addField(f *FieldDef) error {
	if f == nil || f.Name == "" {
		return fmt.Errorf("provenance: field with empty name on type %s", t.Name)
	}
	if f.Kind == KindInvalid {
		return fmt.Errorf("provenance: field %s.%s has invalid kind", t.Name, f.Name)
	}
	if t.fields == nil {
		t.fields = make(map[string]*FieldDef)
	}
	if _, ok := t.fields[f.Name]; ok {
		return fmt.Errorf("provenance: duplicate field %s.%s", t.Name, f.Name)
	}
	t.fields[f.Name] = f
	t.order = append(t.order, f.Name)
	return nil
}

// AddRelation declares a relation type.
func (m *Model) AddRelation(r *RelationDef) error {
	if r == nil || r.Name == "" {
		return fmt.Errorf("provenance: relation with empty name")
	}
	if _, ok := m.relations[r.Name]; ok {
		return fmt.Errorf("provenance: duplicate relation %s", r.Name)
	}
	if r.SourceType != "" {
		if _, ok := m.types[r.SourceType]; !ok {
			return fmt.Errorf("provenance: relation %s has unknown source type %s", r.Name, r.SourceType)
		}
	}
	if r.TargetType != "" {
		if _, ok := m.types[r.TargetType]; !ok {
			return fmt.Errorf("provenance: relation %s has unknown target type %s", r.Name, r.TargetType)
		}
	}
	m.relations[r.Name] = r
	m.relOrder = append(m.relOrder, r.Name)
	return nil
}

// Type returns the declaration of the named type, or nil.
func (m *Model) Type(name string) *TypeDef { return m.types[name] }

// Relation returns the declaration of the named relation, or nil.
func (m *Model) Relation(name string) *RelationDef { return m.relations[name] }

// Types returns all type declarations in insertion order.
func (m *Model) Types() []*TypeDef {
	res := make([]*TypeDef, 0, len(m.order))
	for _, name := range m.order {
		res = append(res, m.types[name])
	}
	return res
}

// Relations returns all relation declarations in insertion order.
func (m *Model) Relations() []*RelationDef {
	res := make([]*RelationDef, 0, len(m.relOrder))
	for _, name := range m.relOrder {
		res = append(res, m.relations[name])
	}
	return res
}

// Field returns the declaration of the named field, or nil.
func (t *TypeDef) Field(name string) *FieldDef {
	if t == nil {
		return nil
	}
	return t.fields[name]
}

// Fields returns all field declarations in insertion order.
func (t *TypeDef) Fields() []*FieldDef {
	res := make([]*FieldDef, 0, len(t.order))
	for _, name := range t.order {
		res = append(res, t.fields[name])
	}
	return res
}

// CheckNode validates a node against the model: its type must be declared
// with the node's class, and every attribute must match a declared field's
// kind. Missing attributes are permitted — partially managed processes do
// not guarantee complete capture.
func (m *Model) CheckNode(n *Node) error {
	if err := n.Validate(); err != nil {
		return err
	}
	t, ok := m.types[n.Type]
	if !ok {
		return fmt.Errorf("provenance: node %s has undeclared type %s", n.ID, n.Type)
	}
	if t.Class != n.Class {
		return fmt.Errorf("provenance: node %s: type %s is class %v, record says %v",
			n.ID, n.Type, t.Class, n.Class)
	}
	for _, a := range n.Attrs {
		name, v := a.Name, a.Value
		f := t.fields[name]
		if f == nil {
			return fmt.Errorf("provenance: node %s has undeclared attribute %s.%s", n.ID, n.Type, name)
		}
		if v.IsZero() {
			continue
		}
		if v.Kind() != f.Kind && !(v.isNumeric() && (f.Kind == KindInt || f.Kind == KindFloat)) {
			return fmt.Errorf("provenance: node %s attribute %s.%s is %v, declared %v",
				n.ID, n.Type, name, v.Kind(), f.Kind)
		}
	}
	return nil
}

// CheckEdge validates an edge against the model and, when the endpoint
// nodes are supplied, against the relation's declared endpoint types.
func (m *Model) CheckEdge(e *Edge, src, dst *Node) error {
	if err := e.Validate(); err != nil {
		return err
	}
	r, ok := m.relations[e.Type]
	if !ok {
		return fmt.Errorf("provenance: edge %s has undeclared relation type %s", e.ID, e.Type)
	}
	if src != nil && r.SourceType != "" && src.Type != r.SourceType {
		return fmt.Errorf("provenance: edge %s: relation %s requires source type %s, got %s",
			e.ID, r.Name, r.SourceType, src.Type)
	}
	if dst != nil && r.TargetType != "" && dst.Type != r.TargetType {
		return fmt.Errorf("provenance: edge %s: relation %s requires target type %s, got %s",
			e.ID, r.Name, r.TargetType, dst.Type)
	}
	return nil
}

// IndexedFields lists every (type, field) pair declared Indexed, sorted,
// so the store can build its secondary indexes.
func (m *Model) IndexedFields() [][2]string {
	var res [][2]string
	for _, tn := range m.order {
		t := m.types[tn]
		for _, fn := range t.order {
			if t.fields[fn].Indexed {
				res = append(res, [2]string{tn, fn})
			}
		}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i][0] != res[j][0] {
			return res[i][0] < res[j][0]
		}
		return res[i][1] < res[j][1]
	})
	return res
}

// RelationsFrom returns relations whose declared source type is the given
// type (or unconstrained), in declaration order. The BOM verbalizer uses
// this to generate relation navigation phrases.
func (m *Model) RelationsFrom(typeName string) []*RelationDef {
	var res []*RelationDef
	for _, rn := range m.relOrder {
		r := m.relations[rn]
		if r.SourceType == "" || r.SourceType == typeName {
			res = append(res, r)
		}
	}
	return res
}
