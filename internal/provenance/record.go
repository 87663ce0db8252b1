package provenance

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// Class enumerates the record classes of the provenance data model
// (Section II-B of the paper): four node classes plus the relation class
// that represents edges.
type Class int

const (
	ClassInvalid Class = iota
	// ClassData marks business artifacts produced or exchanged during the
	// process: documents, e-mails, database records.
	ClassData
	// ClassTask marks records of process activities that utilize or
	// manipulate data and are executed by resources.
	ClassTask
	// ClassResource marks people, runtimes, or other resources relevant to
	// the selected provenance scope.
	ClassResource
	// ClassCustom marks domain-specific, mostly virtual artifacts such as
	// compliance goals, alerts and control points.
	ClassCustom
	// ClassRelation marks edge records produced by correlation analysis.
	ClassRelation
)

var classNames = [...]string{
	ClassInvalid:  "invalid",
	ClassData:     "data",
	ClassTask:     "task",
	ClassResource: "resource",
	ClassCustom:   "custom",
	ClassRelation: "relation",
}

// String returns the lower-case class name used in the CLASS column of
// the provenance store (Table 1 of the paper).
func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass converts a class name back to a Class.
func ParseClass(s string) (Class, error) {
	for c, name := range classNames {
		if name == s && Class(c) != ClassInvalid {
			return Class(c), nil
		}
	}
	return ClassInvalid, fmt.Errorf("provenance: unknown class %q", s)
}

// IsNode reports whether the class is one of the four node classes.
func (c Class) IsNode() bool {
	return c == ClassData || c == ClassTask || c == ClassResource || c == ClassCustom
}

// Node is a provenance graph vertex: one Data, Task, Resource or Custom
// record captured from the underlying IT systems.
type Node struct {
	// ID uniquely identifies the record in the provenance store ("PE3").
	ID string
	// Class is the record class; must satisfy Class.IsNode.
	Class Class
	// Type names the concrete record type within the class, e.g.
	// "jobRequisition" for a data node or "person" for a resource node.
	// Types are declared in the provenance data model (Model).
	Type string
	// AppID identifies the process execution trace the record belongs to,
	// differentiating entities of different traces stored in one table.
	AppID string
	// Timestamp records when the underlying application event occurred.
	Timestamp time.Time
	// Attrs holds the typed attributes extracted from the application
	// event payload, named by the fields declared in the data model.
	Attrs Attrs
}

// Attr returns the named attribute, or an absent Value when the record
// does not carry it (common in partially managed processes).
func (n *Node) Attr(name string) Value {
	if n == nil {
		return Value{}
	}
	return n.Attrs.Get(name)
}

// SetAttr sets an attribute, keeping Attrs sorted.
func (n *Node) SetAttr(name string, v Value) { n.Attrs.Set(name, v) }

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	c.Attrs = slices.Clone(n.Attrs)
	return &c
}

// Validate checks structural invariants of the node record.
func (n *Node) Validate() error {
	switch {
	case n == nil:
		return fmt.Errorf("provenance: nil node")
	case n.ID == "":
		return fmt.Errorf("provenance: node has empty ID")
	case !n.Class.IsNode():
		return fmt.Errorf("provenance: node %s has non-node class %v", n.ID, n.Class)
	case n.Type == "":
		return fmt.Errorf("provenance: node %s has empty type", n.ID)
	case n.AppID == "":
		return fmt.Errorf("provenance: node %s has empty app ID", n.ID)
	}
	return n.Attrs.validate("node", n.ID)
}

// String renders a compact human-readable description for logs and tests.
func (n *Node) String() string {
	if n == nil {
		return "<nil node>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s %s[%s]{", n.Class, n.Type, n.ID, n.AppID)
	for i, a := range n.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", a.Name, a.Value.Text())
	}
	b.WriteString("}")
	return b.String()
}

// Edge is a relation record: a directed, typed edge between two nodes of
// the same trace, generally produced by correlation analysis ("actor",
// "generates", "submitterOf", ...).
type Edge struct {
	// ID uniquely identifies the relation record in the provenance store.
	ID string
	// Type is the relation type declared in the data model.
	Type string
	// AppID identifies the trace; both endpoints must belong to it.
	AppID string
	// Source and Target reference node IDs.
	Source string
	Target string
	// Timestamp records when the relation was established.
	Timestamp time.Time
	// Attrs holds optional relation attributes (e.g. a correlation score).
	Attrs Attrs
}

// Attr returns the named attribute, or an absent Value.
func (e *Edge) Attr(name string) Value {
	if e == nil {
		return Value{}
	}
	return e.Attrs.Get(name)
}

// SetAttr sets an attribute, keeping Attrs sorted.
func (e *Edge) SetAttr(name string, v Value) { e.Attrs.Set(name, v) }

// Clone returns a deep copy of the edge.
func (e *Edge) Clone() *Edge {
	if e == nil {
		return nil
	}
	c := *e
	c.Attrs = slices.Clone(e.Attrs)
	return &c
}

// Validate checks structural invariants of the edge record.
func (e *Edge) Validate() error {
	switch {
	case e == nil:
		return fmt.Errorf("provenance: nil edge")
	case e.ID == "":
		return fmt.Errorf("provenance: edge has empty ID")
	case e.Type == "":
		return fmt.Errorf("provenance: edge %s has empty type", e.ID)
	case e.AppID == "":
		return fmt.Errorf("provenance: edge %s has empty app ID", e.ID)
	case e.Source == "":
		return fmt.Errorf("provenance: edge %s has empty source", e.ID)
	case e.Target == "":
		return fmt.Errorf("provenance: edge %s has empty target", e.ID)
	case e.Source == e.Target:
		return fmt.Errorf("provenance: edge %s is a self loop on %s", e.ID, e.Source)
	}
	return e.Attrs.validate("edge", e.ID)
}

// String renders a compact human-readable description for logs and tests.
func (e *Edge) String() string {
	if e == nil {
		return "<nil edge>"
	}
	return fmt.Sprintf("relation/%s %s[%s] %s->%s", e.Type, e.ID, e.AppID, e.Source, e.Target)
}
