package store

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/provenance"
)

func reqNode() *provenance.Node {
	return &provenance.Node{
		ID: "PE3", Class: provenance.ClassData, Type: "jobRequisition", AppID: "App01",
		Timestamp: time.Date(2011, 4, 11, 9, 30, 0, 0, time.UTC),
		Attrs: map[string]provenance.Value{
			"reqID":        provenance.String("REQ001"),
			"positionType": provenance.String("new"),
			"dept":         provenance.String("dept501"),
			"position":     provenance.String("Sales"),
			"headcount":    provenance.Int(2),
			"urgent":       provenance.Bool(false),
			"budget":       provenance.Float(120000.50),
		},
	}
}

func relEdge() *provenance.Edge {
	return &provenance.Edge{
		ID: "PE7", Type: "submitterOf", AppID: "App01",
		Source: "PE1", Target: "PE3",
		Timestamp: time.Date(2011, 4, 11, 9, 31, 0, 0, time.UTC),
		Attrs: map[string]provenance.Value{
			"confidence": provenance.Float(0.98),
		},
	}
}

func TestEncodeNodeShape(t *testing.T) {
	row, err := EncodeNode(reqNode())
	if err != nil {
		t.Fatal(err)
	}
	if row.ID != "PE3" || row.Class != "data" || row.AppID != "App01" {
		t.Fatalf("row columns = %+v", row)
	}
	// The XML shape must match Table 1 of the paper: ps-prefixed root named
	// after the type, ps:id / ps:class attributes, ps:appID element,
	// attribute elements named after the fields.
	for _, want := range []string{
		`<ps:jobRequisition ps:id="PE3" ps:class="data">`,
		`<ps:appID>App01</ps:appID>`,
		`<ps:timestamp value="2011-04-11T09:30:00Z"/>`,
		`<reqID kind="string">REQ001</reqID>`,
		`<dept kind="string">dept501</dept>`,
		`<headcount kind="int">2</headcount>`,
		`</ps:jobRequisition>`,
	} {
		if !strings.Contains(row.XML, want) {
			t.Errorf("XML missing %q:\n%s", want, row.XML)
		}
	}
}

func TestEncodeEdgeShape(t *testing.T) {
	row, err := EncodeEdge(relEdge())
	if err != nil {
		t.Fatal(err)
	}
	if row.Class != "relation" {
		t.Fatalf("row class = %q", row.Class)
	}
	for _, want := range []string{
		`<ps:relation ps:id="PE7" ps:class="relation" ps:type="submitterOf">`,
		`<ps:source>PE1</ps:source>`,
		`<ps:target>PE3</ps:target>`,
	} {
		if !strings.Contains(row.XML, want) {
			t.Errorf("XML missing %q:\n%s", want, row.XML)
		}
	}
}

func TestNodeRoundTrip(t *testing.T) {
	orig := reqNode()
	row, err := EncodeNode(orig)
	if err != nil {
		t.Fatal(err)
	}
	n, e, err := DecodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Fatal("node decoded as edge")
	}
	if n.ID != orig.ID || n.Class != orig.Class || n.Type != orig.Type || n.AppID != orig.AppID {
		t.Fatalf("identity mismatch: %v", n)
	}
	if !n.Timestamp.Equal(orig.Timestamp) {
		t.Errorf("timestamp %v != %v", n.Timestamp, orig.Timestamp)
	}
	if len(n.Attrs) != len(orig.Attrs) {
		t.Fatalf("attr count %d != %d", len(n.Attrs), len(orig.Attrs))
	}
	for k, v := range orig.Attrs {
		if !n.Attrs[k].Equal(v) {
			t.Errorf("attr %s: %v != %v", k, n.Attrs[k], v)
		}
	}
}

func TestEdgeRoundTrip(t *testing.T) {
	orig := relEdge()
	row, err := EncodeEdge(orig)
	if err != nil {
		t.Fatal(err)
	}
	n, e, err := DecodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if n != nil {
		t.Fatal("edge decoded as node")
	}
	if e.ID != orig.ID || e.Type != orig.Type || e.Source != orig.Source || e.Target != orig.Target {
		t.Fatalf("identity mismatch: %v", e)
	}
	if !e.Attrs["confidence"].Equal(orig.Attrs["confidence"]) {
		t.Errorf("attrs lost: %v", e.Attrs)
	}
}

func TestRoundTripEscaping(t *testing.T) {
	n := &provenance.Node{
		ID: "PE<&>", Class: provenance.ClassData, Type: "doc", AppID: `App"quoted"`,
		Attrs: map[string]provenance.Value{
			"body": provenance.String("<ps:fake attr=\"x\"/> & ]]> text\n\ttabs"),
		},
	}
	row, err := EncodeNode(n)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != n.ID || got.AppID != n.AppID {
		t.Fatalf("identity mismatch: %v", got)
	}
	if got.Attrs["body"].Str() != n.Attrs["body"].Str() {
		t.Errorf("body = %q", got.Attrs["body"].Str())
	}
}

func TestDecodeRejectsCorruptRows(t *testing.T) {
	good, err := EncodeNode(reqNode())
	if err != nil {
		t.Fatal(err)
	}
	cases := []Row{
		{ID: "PE3", Class: "data", AppID: "App01", XML: "not xml at all"},
		{ID: "WRONG", Class: "data", AppID: "App01", XML: good.XML},
		{ID: "PE3", Class: "data", AppID: "OtherApp", XML: good.XML},
		{ID: "PE3", Class: "data", AppID: "App01",
			XML: strings.Replace(good.XML, `kind="int"`, `kind="widget"`, 1)},
		{ID: "PE3", Class: "data", AppID: "App01",
			XML: strings.Replace(good.XML, `ps:class="data"`, `ps:class="galaxy"`, 1)},
		{ID: "PE3", Class: "data", AppID: "App01",
			XML: `<jobRequisition ps:id="PE3" ps:class="data"></jobRequisition>`},
	}
	for i, r := range cases {
		if _, _, err := DecodeRow(r); err == nil {
			t.Errorf("case %d: corrupt row decoded successfully", i)
		}
	}
}

// TestDecodeRowReadsAnyWellFormedRow pins DecodeRow on rows in forms
// nodeRow and edgeRow never write: any well-formed XML of the Table-1 shape
// reads, and what encoding/xml or the record's own validation rejects is an
// error.
func TestDecodeRowReadsAnyWellFormedRow(t *testing.T) {
	node := func(xml string) Row { return Row{ID: "x", Class: "data", AppID: "A", XML: xml} }
	edge := func(xml string) Row { return Row{ID: "e", Class: "relation", AppID: "A", XML: xml} }
	const open, close = `<ps:doc ps:id="x" ps:class="data">`, `</ps:doc>`
	const app = `<ps:appID>A</ps:appID>`
	for _, c := range []struct {
		row      Row
		accepted bool
	}{
		// Reordered system elements and attributes.
		{node(open + `<v kind="int">1</v>` + app + close), true},
		{node(`<ps:doc ps:class="data" ps:id="x">` + app + close), true},
		{edge(`<ps:relation ps:id="e" ps:class="relation" ps:type="t"><ps:target>b</ps:target><ps:source>a</ps:source>` + app + `</ps:relation>`), true},
		// Whitespace, comments, CDATA, trailing bytes.
		{node(open + "\n  " + app + "\n" + close), true},
		{node(open + app + `<!-- note -->` + close), true},
		{node(open + app + `<v kind="string"><![CDATA[a<b]]></v>` + close), true},
		{node(open + app + close + "\n"), true},
		{node(`<ps:doc ps:id='x' ps:class="data">` + app + close), true},
		// Escape forms EscapeText does not write, raw characters it would have escaped.
		{node(open + app + `<v kind="string">&quot;&apos;&#x22;&#60;</v>` + close), true},
		{node(open + app + `<v kind="string">a>b "c" 'd'</v>` + close), true},
		// Namespaces and names beyond plain ASCII.
		{node(`<ps:doc xmlns="urn:x" ps:id="x" ps:class="data">` + app + close), true},
		{node(open + app + `<é kind="int">1</é>` + close), true},
		// Rows encoding/xml or validation rejects.
		{node(open + app + "<v kind=\"string\">\x01</v>" + close), false},
		{node(open + app + "<v kind=\"string\">\xff</v>" + close), false},
		{node(open + app + `<v kind="string">&bogus;</v>` + close), false},
		{node(open + app + `<v kind="int">one</v>` + close), false},
		{node(open + app + `<v kind="int">1</w>` + close), false},
		{node(open + app), false},
		{node(`<ps:doc ps:id="x" ps:class="relation">` + app + close), false},
		{edge(`<ps:relation ps:id="e" ps:class="relation" ps:type="t">` + app + `<ps:source>a</ps:source><ps:target>a</ps:target></ps:relation>`), false},
		{edge(`<ps:relation ps:id="e" ps:class="relation">` + app + `<ps:source>a</ps:source><ps:target>b</ps:target></ps:relation>`), false},
	} {
		if _, _, err := DecodeRow(c.row); (err == nil) != c.accepted {
			t.Errorf("DecodeRow(%s) error = %v, want accepted=%v", c.row.XML, err, c.accepted)
		}
	}
}

func TestEncodeSkipsAbsentAttrs(t *testing.T) {
	n := &provenance.Node{
		ID: "n", Class: provenance.ClassData, Type: "doc", AppID: "A",
		Attrs: map[string]provenance.Value{"gone": {}},
	}
	row, err := EncodeNode(n)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(row.XML, "gone") {
		t.Errorf("absent attribute serialized: %s", row.XML)
	}
	got, _, err := DecodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Attrs) != 0 {
		t.Errorf("decoded attrs = %v", got.Attrs)
	}
}

// Property: any node with arbitrary string attribute values round-trips.
func TestNodeRoundTripProperty(t *testing.T) {
	xmlValid := func(s string) bool {
		for _, r := range s {
			ok := r == '\t' || r == '\n' || r == '\r' ||
				(r >= 0x20 && r <= 0xD7FF) || (r >= 0xE000 && r <= 0xFFFD) ||
				(r >= 0x10000 && r <= 0x10FFFF)
			if !ok {
				return false
			}
		}
		return true
	}
	f := func(id, app, val string) bool {
		if id == "" || app == "" {
			return true // validation rejects these by design
		}
		if !xmlValid(id) || !xmlValid(app) || !xmlValid(val) {
			return true // XML cannot carry these code points; out of scope
		}
		n := &provenance.Node{
			ID: id, Class: provenance.ClassData, Type: "doc", AppID: app,
			Attrs: map[string]provenance.Value{"v": provenance.String(val)},
		}
		row, err := EncodeNode(n)
		if err != nil {
			return false
		}
		got, _, err := DecodeRow(row)
		if err != nil {
			return false
		}
		return got.ID == id && got.AppID == app && got.Attrs["v"].Str() == val
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeNode(b *testing.B) {
	n := reqNode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeNode(n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRow(b *testing.B) {
	row, err := EncodeNode(reqNode())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRow(row); err != nil {
			b.Fatal(err)
		}
	}
}
