// Package query implements the query interface of the provenance store
// (Section II-A): declarative node queries with typed predicates, a
// planner that picks secondary indexes when available (design decision
// D4), and EXPLAIN output surfacing the chosen plan. The rule engine binds
// control-point definitions through this engine, and the query frontend
// (cmd/provd) exposes it over HTTP.
package query

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/provenance"
	"repro/internal/store"
)

// Op enumerates predicate operators.
type Op int

const (
	// Eq tests attribute equality.
	Eq Op = iota + 1
	// Ne tests attribute inequality.
	Ne
	// Lt, Le, Gt, Ge are ordered comparisons.
	Lt
	Le
	Gt
	Ge
	// Contains tests substring containment on string attributes.
	Contains
	// Present tests that the attribute was captured at all.
	Present
	// Absent tests that the attribute was not captured.
	Absent
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Contains:
		return "contains"
	case Present:
		return "present"
	case Absent:
		return "absent"
	default:
		return "?"
	}
}

// Pred is one attribute predicate.
type Pred struct {
	Field string
	Op    Op
	Value provenance.Value // unused for Present/Absent
}

// Matches evaluates the predicate against a node. Missing attributes fail
// every operator except Absent: a predicate cannot be satisfied by data
// that was never captured.
func (p Pred) Matches(n *provenance.Node) bool {
	v := n.Attr(p.Field)
	switch p.Op {
	case Present:
		return !v.IsZero()
	case Absent:
		return v.IsZero()
	}
	if v.IsZero() {
		return false
	}
	switch p.Op {
	case Eq:
		return v.Equal(p.Value)
	case Ne:
		return !v.Equal(p.Value)
	case Contains:
		return v.Kind() == provenance.KindString && p.Value.Kind() == provenance.KindString &&
			strings.Contains(v.Str(), p.Value.Str())
	case Lt, Le, Gt, Ge:
		c, err := v.Compare(p.Value)
		if err != nil {
			return false
		}
		switch p.Op {
		case Lt:
			return c < 0
		case Le:
			return c <= 0
		case Gt:
			return c > 0
		default:
			return c >= 0
		}
	default:
		return false
	}
}

// Query selects nodes. Zero-valued fields are unconstrained.
type Query struct {
	Class provenance.Class
	Type  string
	AppID string
	Preds []Pred
	// OrderBy sorts results by an attribute (absent values last, ties by
	// record ID); empty sorts by record ID. Desc reverses the order.
	OrderBy string
	Desc    bool
	// Limit caps the result set; 0 means unlimited. With OrderBy the limit
	// applies after sorting (top-k).
	Limit int
}

// Engine plans and runs queries against a store.
type Engine struct {
	st *store.Store
}

// NewEngine wraps a store.
func NewEngine(st *store.Store) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("query: nil store")
	}
	return &Engine{st: st}, nil
}

// accessPath enumerates how the planner reaches candidate nodes.
type accessPath int

const (
	fullScan accessPath = iota
	typeScan
	indexScan
)

// Plan is a prepared query: an access path plus residual filters.
type Plan struct {
	eng   *Engine
	q     Query
	path  accessPath
	ixKey int // index of the predicate served by the index scan
}

// Plan validates the query and chooses an access path: an equality
// predicate with a declared index wins, otherwise a (class,type) scan,
// otherwise a full scan.
func (e *Engine) Plan(q Query) (*Plan, error) {
	if m := e.st.Model(); m != nil {
		if q.Type != "" {
			t := m.Type(q.Type)
			if t == nil {
				return nil, fmt.Errorf("query: unknown type %q", q.Type)
			}
			if q.Class != provenance.ClassInvalid && t.Class != q.Class {
				return nil, fmt.Errorf("query: type %q is class %v, query says %v", q.Type, t.Class, q.Class)
			}
			for _, p := range q.Preds {
				if t.Field(p.Field) == nil {
					return nil, fmt.Errorf("query: type %q has no field %q", q.Type, p.Field)
				}
			}
		}
	}
	if m := e.st.Model(); m != nil && q.OrderBy != "" && q.Type != "" {
		if m.Type(q.Type).Field(q.OrderBy) == nil {
			return nil, fmt.Errorf("query: type %q has no field %q to order by", q.Type, q.OrderBy)
		}
	}
	pl := &Plan{eng: e, q: q, path: fullScan, ixKey: -1}
	if q.Type != "" {
		pl.path = typeScan
		if m := e.st.Model(); m != nil {
			t := m.Type(q.Type)
			for i, p := range q.Preds {
				if p.Op == Eq && t != nil {
					if f := t.Field(p.Field); f != nil && f.Indexed {
						pl.path = indexScan
						pl.ixKey = i
						break
					}
				}
			}
		}
	}
	return pl, nil
}

// Explain renders the plan as a pipeline, e.g.
//
//	IndexScan(jobRequisition.reqID = "REQ001") -> Filter(appID, 1 preds) -> Limit(10)
func (p *Plan) Explain() string {
	var b strings.Builder
	switch p.path {
	case indexScan:
		pr := p.q.Preds[p.ixKey]
		fmt.Fprintf(&b, "IndexScan(%s.%s = %q)", p.q.Type, pr.Field, pr.Value.Text())
	case typeScan:
		fmt.Fprintf(&b, "TypeScan(%s)", p.q.Type)
	default:
		b.WriteString("FullScan")
	}
	residual := len(p.q.Preds)
	if p.path == indexScan {
		residual--
	}
	var filters []string
	if p.q.AppID != "" && p.path != typeScan && p.path != fullScan {
		filters = append(filters, "appID")
	}
	if p.q.Class != provenance.ClassInvalid && p.q.Type == "" {
		filters = append(filters, "class")
	}
	if residual > 0 {
		filters = append(filters, fmt.Sprintf("%d preds", residual))
	}
	if len(filters) > 0 {
		fmt.Fprintf(&b, " -> Filter(%s)", strings.Join(filters, ", "))
	}
	if p.q.Limit > 0 {
		fmt.Fprintf(&b, " -> Limit(%d)", p.q.Limit)
	}
	return b.String()
}

// Indexed reports whether the plan uses a secondary index.
func (p *Plan) Indexed() bool { return p.path == indexScan }

// Run executes the plan, returning clones of the matching nodes. Results
// sort by OrderBy when set (absent values last, ties by ID) and by record
// ID otherwise. The whole plan executes inside one store read view
// (store.ReadTx), so the index probe and the graph resolution always see
// the same snapshot — an index hit can never dangle against a newer or
// older graph.
func (p *Plan) Run() ([]*provenance.Node, error) {
	var out []*provenance.Node
	collect := func(n *provenance.Node) bool {
		for _, pr := range p.q.Preds {
			if !pr.Matches(n) {
				return false
			}
		}
		out = append(out, n.Clone())
		return true
	}
	// Early limiting is only sound when no ordering is requested.
	earlyLimit := p.q.Limit
	if p.q.OrderBy != "" {
		earlyLimit = 0
	}
	err := p.eng.st.ReadTx(func(tx store.ReadTx) error {
		if p.path == indexScan {
			pr := p.q.Preds[p.ixKey]
			// The planner chose this path because the model declares the
			// field indexed, and the store indexes every such field.
			ids, _ := tx.LookupByAttr(p.q.Type, pr.Field, pr.Value)
			g := tx.Graph()
			for _, id := range ids {
				n := g.Node(id)
				if n == nil || (p.q.AppID != "" && n.AppID != p.q.AppID) {
					continue
				}
				collect(n)
				if earlyLimit > 0 && len(out) >= earlyLimit {
					break
				}
			}
			return nil
		}
		p.scan(tx.Graph(), earlyLimit, &out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.finish(out), nil
}

// finish applies ordering and the post-sort limit.
func (p *Plan) finish(out []*provenance.Node) []*provenance.Node {
	if p.q.OrderBy == "" {
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	} else {
		field := p.q.OrderBy
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i].Attr(field), out[j].Attr(field)
			switch {
			case a.IsZero() && b.IsZero():
				return out[i].ID < out[j].ID
			case a.IsZero():
				return false // absent values always last
			case b.IsZero():
				return true
			}
			c, err := a.Compare(b)
			if err != nil || c == 0 {
				return out[i].ID < out[j].ID
			}
			if p.q.Desc {
				return c > 0
			}
			return c < 0
		})
	}
	if p.q.Limit > 0 && len(out) > p.q.Limit {
		out = out[:p.q.Limit]
	}
	return out
}

func (p *Plan) scan(g *provenance.Graph, earlyLimit int, out *[]*provenance.Node) {
	// Both branches are index-backed: NodesByType reads the trace's type
	// posting list directly, and Nodes routes class/type filters through
	// the same per-shard postings.
	var cands []*provenance.Node
	if p.q.Type != "" && p.q.Class == provenance.ClassInvalid {
		cands = g.NodesByType(p.q.AppID, p.q.Type)
	} else {
		cands = g.Nodes(provenance.NodeFilter{Class: p.q.Class, Type: p.q.Type, AppID: p.q.AppID})
	}
	for _, n := range cands {
		ok := true
		for _, pr := range p.q.Preds {
			if !pr.Matches(n) {
				ok = false
				break
			}
		}
		if ok {
			*out = append(*out, n.Clone())
			if earlyLimit > 0 && len(*out) >= earlyLimit {
				return
			}
		}
	}
}

// Run is a convenience: plan and execute in one call.
func (e *Engine) Run(q Query) ([]*provenance.Node, error) {
	pl, err := e.Plan(q)
	if err != nil {
		return nil, err
	}
	return pl.Run()
}
