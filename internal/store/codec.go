// Package store implements the provenance store of the paper's Section
// II-A: every provenance record is appended to a crash-safe disk log,
// indexed in memory for the query engine, and read back as a row (ID,
// CLASS, APPID, XML) exactly as in Table 1 — the row is rendered from the
// record, which the log and sealed segments store. The store exposes a change
// feed so that correlation analytics and continuous compliance checking
// can react to new records.
package store

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/provenance"
)

// Row is one row of the provenance table, mirroring Table 1 of the paper:
// a record ID, its class, the trace (application) ID, and the record
// content serialized as XML.
type Row struct {
	ID    string
	Class string
	AppID string
	XML   string
}

// EncodeNode serializes a node record into a Table-1 row. The XML shape
// follows the paper's examples: the root element is named after the record
// type with the ps: prefix and carries ps:id and ps:class attributes; the
// application ID and timestamp are system elements; every business
// attribute becomes an element named after the field, carrying a kind
// attribute so rows are self-describing on decode.
//
//	<ps:jobRequisition ps:id="PE3" ps:class="data">
//	  <ps:appID>App01</ps:appID>
//	  <ps:timestamp value="2011-04-11T09:30:00Z"/>
//	  <reqID kind="string">REQ001</reqID>
//	</ps:jobRequisition>
func EncodeNode(n *provenance.Node) (Row, error) {
	if err := n.Validate(); err != nil {
		return Row{}, err
	}
	return nodeRow(n), nil
}

// nodeRow is EncodeNode for a record that already passed Validate — every
// record a graph holds. The encoding is a pure, canonical function of the
// record (attributes sorted by name), which is what lets the store keep
// records once, in the graph, and derive Table 1 on demand.
func nodeRow(n *provenance.Node) Row {
	var b strings.Builder
	openRecordElem(&b, n.Type, n.ID, n.Class.String(), "")
	writeSystemElems(&b, n.AppID, n.Timestamp)
	writeAttrElems(&b, n.Attrs)
	closeRecordElem(&b, n.Type)
	return Row{ID: n.ID, Class: n.Class.String(), AppID: n.AppID, XML: b.String()}
}

// EncodeEdge serializes a relation record into a Table-1 row. Relations
// use the fixed root element ps:relation with a ps:type attribute and
// ps:source / ps:target system elements, as in the paper's PE4 example.
func EncodeEdge(e *provenance.Edge) (Row, error) {
	if err := e.Validate(); err != nil {
		return Row{}, err
	}
	return edgeRow(e), nil
}

// edgeRow is nodeRow for relation records.
func edgeRow(e *provenance.Edge) Row {
	var b strings.Builder
	openRecordElem(&b, "relation", e.ID, provenance.ClassRelation.String(), e.Type)
	writeSystemElems(&b, e.AppID, e.Timestamp)
	b.WriteString("<ps:source>")
	xmlEscape(&b, e.Source)
	b.WriteString("</ps:source><ps:target>")
	xmlEscape(&b, e.Target)
	b.WriteString("</ps:target>")
	writeAttrElems(&b, e.Attrs)
	closeRecordElem(&b, "relation")
	return Row{ID: e.ID, Class: provenance.ClassRelation.String(), AppID: e.AppID, XML: b.String()}
}

func openRecordElem(b *strings.Builder, elem, id, class, relType string) {
	b.WriteString("<ps:")
	b.WriteString(elem)
	b.WriteString(` ps:id="`)
	xmlEscape(b, id)
	b.WriteString(`" ps:class="`)
	xmlEscape(b, class)
	b.WriteString(`"`)
	if relType != "" {
		b.WriteString(` ps:type="`)
		xmlEscape(b, relType)
		b.WriteString(`"`)
	}
	b.WriteString(">")
}

func closeRecordElem(b *strings.Builder, elem string) {
	b.WriteString("</ps:")
	b.WriteString(elem)
	b.WriteString(">")
}

func writeSystemElems(b *strings.Builder, appID string, ts time.Time) {
	b.WriteString("<ps:appID>")
	xmlEscape(b, appID)
	b.WriteString("</ps:appID>")
	if !ts.IsZero() {
		b.WriteString(`<ps:timestamp value="`)
		xmlEscape(b, provenance.Time(ts).Text())
		b.WriteString(`"/>`)
	}
}

func writeAttrElems(b *strings.Builder, attrs map[string]provenance.Value) {
	names := make([]string, 0, len(attrs))
	for name := range attrs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := attrs[name]
		if v.IsZero() {
			continue
		}
		b.WriteString("<")
		b.WriteString(name)
		b.WriteString(` kind="`)
		b.WriteString(v.Kind().String())
		b.WriteString(`">`)
		xmlEscape(b, v.Text())
		b.WriteString("</")
		b.WriteString(name)
		b.WriteString(">")
	}
}

// canonEntry returns e with its validated node or edge replaced by the
// record the store keeps and logs for it: the fixed point of the Table-1
// round trip, DecodeRow of its row. liveNode and liveEdge build it without
// the trip; a record they cannot vouch for takes the trip, and one the trip
// rejects is rejected here, before it reaches the log.
func canonEntry(e entry) (entry, error) {
	n, ed := e.node, e.edge
	var r Row
	if n != nil {
		if e.node = liveNode(n); e.node == nil {
			r = nodeRow(n)
		}
	} else if e.edge = liveEdge(ed); e.edge == nil {
		r = edgeRow(ed)
	}
	if e.node != nil || e.edge != nil {
		return e, nil
	}
	var err error
	e.node, e.edge, err = DecodeRow(r)
	return e, err
}

// liveNode returns the record DecodeRow(nodeRow(n)) would, built without
// the XML round trip: a private deep copy, timestamps in UTC, absent
// attributes dropped. It returns nil whenever it cannot vouch for that
// equality: text XML cannot carry (EscapeText would write U+FFFD for it), a
// name encoding/xml would not read back as the same element, a year RFC
// 3339 cannot carry.
func liveNode(n *provenance.Node) *provenance.Node {
	ts, attrs, ok := liveFields(n.Timestamp, n.Attrs)
	if !ok || !xmlName(n.Type) || !xmlText(n.ID) || !xmlText(n.AppID) {
		return nil
	}
	return &provenance.Node{ID: n.ID, Class: n.Class, Type: n.Type, AppID: n.AppID, Timestamp: ts, Attrs: attrs}
}

// liveEdge is liveNode for relation records.
func liveEdge(e *provenance.Edge) *provenance.Edge {
	ts, attrs, ok := liveFields(e.Timestamp, e.Attrs)
	for _, s := range [...]string{e.ID, e.Type, e.AppID, e.Source, e.Target} {
		ok = ok && xmlText(s)
	}
	if !ok {
		return nil
	}
	return &provenance.Edge{ID: e.ID, Type: e.Type, AppID: e.AppID, Source: e.Source, Target: e.Target, Timestamp: ts, Attrs: attrs}
}

// liveFields normalises a record's timestamp and attributes the way the
// codec's round trip does; ok is false when the trip would change more.
func liveFields(ts time.Time, attrs map[string]provenance.Value) (time.Time, map[string]provenance.Value, bool) {
	ts, ok := liveTime(ts)
	var out map[string]provenance.Value
	for name, v := range attrs {
		switch v.Kind() {
		case provenance.KindInvalid:
			continue // not encoded at all
		case provenance.KindString:
			ok = ok && xmlText(v.Str())
		case provenance.KindTime:
			t, tok := liveTime(v.TimeVal())
			v, ok = provenance.Time(t), ok && tok
		}
		ok = ok && xmlName(name)
		if out == nil {
			out = make(map[string]provenance.Value, len(attrs))
		}
		out[name] = v
	}
	return ts, out, ok
}

// liveTime is t as the codec reads it back: UTC, no monotonic reading
// (Round(0) drops it).
func liveTime(t time.Time) (time.Time, bool) {
	t = t.UTC().Round(0)
	return t, t.Year() >= 0 && t.Year() <= 9999
}

// xmlText reports whether xml.EscapeText writes s so that it reads back as
// s with no U+FFFD in the row: valid UTF-8 of XML characters, and no
// U+FFFD of its own (EscapeText's substitute, which a reader cannot tell
// from a substitution).
func xmlText(s string) bool {
	for _, r := range s { // invalid UTF-8 ranges as RuneError
		if r == utf8.RuneError || r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return true
}

// xmlName reports whether s is a plain ASCII element name: the root and
// attribute elements are written unescaped.
func xmlName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		letter := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !letter && (i == 0 || !(c >= '0' && c <= '9' || c == '-' || c == '.')) {
			return false
		}
	}
	return s != ""
}

func xmlEscape(b *strings.Builder, s string) {
	// xml.EscapeText never fails on a strings.Builder.
	_ = xml.EscapeText(b, []byte(s))
}

// DecodeRow parses a Table-1 row back into a node or edge record. Exactly
// one of the returned records is non-nil on success. It reads any
// well-formed XML of the Table-1 shape: elements in any order, whitespace
// and comments between them, every escape form XML allows.
func DecodeRow(r Row) (*provenance.Node, *provenance.Edge, error) {
	dec := xml.NewDecoder(strings.NewReader(r.XML))
	root, err := nextStartElement(dec)
	if err != nil {
		return nil, nil, fmt.Errorf("store: row %s: %v", r.ID, err)
	}
	if root.Name.Space != "ps" {
		return nil, nil, fmt.Errorf("store: row %s: root element %q lacks ps prefix", r.ID, root.Name.Local)
	}
	id := xmlAttr(root, "ps", "id")
	className := xmlAttr(root, "ps", "class")
	class, err := provenance.ParseClass(className)
	if err != nil {
		return nil, nil, fmt.Errorf("store: row %s: %v", r.ID, err)
	}
	if id != r.ID {
		return nil, nil, fmt.Errorf("store: row %s: XML carries id %q", r.ID, id)
	}
	body, err := decodeBody(dec, root.Name)
	if err != nil {
		return nil, nil, fmt.Errorf("store: row %s: %v", r.ID, err)
	}
	if body.appID != r.AppID {
		return nil, nil, fmt.Errorf("store: row %s: XML carries appID %q, row says %q", r.ID, body.appID, r.AppID)
	}
	if class == provenance.ClassRelation {
		if root.Name.Local != "relation" {
			return nil, nil, fmt.Errorf("store: row %s: relation row with root %q", r.ID, root.Name.Local)
		}
		e := &provenance.Edge{
			ID: id, Type: xmlAttr(root, "ps", "type"), AppID: body.appID,
			Source: body.source, Target: body.target,
			Timestamp: body.ts, Attrs: body.attrs,
		}
		if err := e.Validate(); err != nil {
			return nil, nil, err
		}
		return nil, e, nil
	}
	n := &provenance.Node{
		ID: id, Class: class, Type: root.Name.Local, AppID: body.appID,
		Timestamp: body.ts, Attrs: body.attrs,
	}
	if err := n.Validate(); err != nil {
		return nil, nil, err
	}
	return n, nil, nil
}

type rowBody struct {
	appID  string
	source string
	target string
	ts     time.Time
	attrs  map[string]provenance.Value
}

func decodeBody(dec *xml.Decoder, rootName xml.Name) (rowBody, error) {
	var body rowBody
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return body, fmt.Errorf("unexpected EOF before </%s>", rootName.Local)
		}
		if err != nil {
			return body, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == "ps" {
				switch t.Name.Local {
				case "appID":
					s, err := elementText(dec, t.Name)
					if err != nil {
						return body, err
					}
					body.appID = s
				case "timestamp":
					v := xmlAttr(t, "", "value")
					if v != "" {
						tv, err := provenance.ParseValue(provenance.KindTime, v)
						if err != nil {
							return body, err
						}
						body.ts = tv.TimeVal()
					}
					if err := dec.Skip(); err != nil {
						return body, err
					}
				case "source":
					s, err := elementText(dec, t.Name)
					if err != nil {
						return body, err
					}
					body.source = s
				case "target":
					s, err := elementText(dec, t.Name)
					if err != nil {
						return body, err
					}
					body.target = s
				default:
					return body, fmt.Errorf("unknown system element ps:%s", t.Name.Local)
				}
				continue
			}
			// Business attribute element: name is the field, kind attr
			// gives the type.
			kindName := xmlAttr(t, "", "kind")
			kind, err := provenance.ParseKind(kindName)
			if err != nil {
				return body, fmt.Errorf("attribute %s: %v", t.Name.Local, err)
			}
			text, err := elementText(dec, t.Name)
			if err != nil {
				return body, err
			}
			v, err := provenance.ParseValue(kind, text)
			if err != nil {
				return body, fmt.Errorf("attribute %s: %v", t.Name.Local, err)
			}
			if body.attrs == nil {
				body.attrs = make(map[string]provenance.Value)
			}
			body.attrs[t.Name.Local] = v
		case xml.EndElement:
			if t.Name == rootName {
				return body, nil
			}
		}
	}
}

func nextStartElement(dec *xml.Decoder) (xml.StartElement, error) {
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.StartElement{}, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se, nil
		}
	}
}

func elementText(dec *xml.Decoder, name xml.Name) (string, error) {
	var b strings.Builder
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", err
		}
		switch t := tok.(type) {
		case xml.CharData:
			b.Write(t)
		case xml.EndElement:
			if t.Name == name {
				return b.String(), nil
			}
			return "", fmt.Errorf("unexpected </%s> inside <%s>", t.Name.Local, name.Local)
		case xml.StartElement:
			return "", fmt.Errorf("unexpected <%s> inside <%s>", t.Name.Local, name.Local)
		}
	}
}

func xmlAttr(se xml.StartElement, space, local string) string {
	for _, a := range se.Attr {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value
		}
	}
	return ""
}
