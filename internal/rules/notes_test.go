package rules

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/bal"
	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/xom"
)

// depotVocab is a small model that reaches every note site: crates with
// string, float and time attributes, a method that can fail or come back
// empty, pallets holding crates (a navigation that can be absent or
// ambiguous), and one phrase holding a quote and non-ASCII runes.
func depotVocab(t testing.TB) *bom.Vocabulary {
	t.Helper()
	m := provenance.NewModel("depot")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(m.AddType(&provenance.TypeDef{Name: "crate", Class: provenance.ClassData}))
	for _, f := range []*provenance.FieldDef{
		{Name: "label", Kind: provenance.KindString},
		{Name: "grade", Kind: provenance.KindString},
		{Name: "weight", Kind: provenance.KindFloat},
		{Name: "packedAt", Kind: provenance.KindTime},
		{Name: "shippedAt", Kind: provenance.KindTime},
	} {
		must(m.AddField("crate", f))
	}
	must(m.AddType(&provenance.TypeDef{Name: "pallet", Class: provenance.ClassData}))
	must(m.AddField("pallet", &provenance.FieldDef{Name: "code", Kind: provenance.KindString}))
	must(m.AddRelation(&provenance.RelationDef{Name: "holds", SourceType: "pallet", TargetType: "crate"}))
	om, err := xom.FromModel(m)
	if err != nil {
		t.Fatal(err)
	}
	must(om.RegisterMethod("crate", &xom.Method{Name: "inspect", Kind: provenance.KindString,
		Fn: func(_ *provenance.Graph, n *provenance.Node) (provenance.Value, error) {
			switch n.Attr("label").Str() {
			case "jam":
				return provenance.Value{}, errors.New("scanner jammed")
			case "blank":
				return provenance.Value{}, nil
			}
			return provenance.String("ok"), nil
		}}))
	v, err := bom.Verbalize(om, bom.Options{MemberLabels: map[string]string{
		"crate.grade":        `grädé "a"`,
		"crate.packedAt":     "packing time",
		"crate.shippedAt":    "shipping time",
		"crate.inspect":      "inspection",
		"crate.holdsInverse": "pallet",
	}})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// depot describes one trace "A1": crates c1..cN with the given attributes
// and pallets p1..pM each holding c1.
type depot struct {
	crates  []provenance.Attrs
	pallets int
}

func (d depot) build(t testing.TB) *provenance.Graph {
	t.Helper()
	g := provenance.NewGraph()
	for i, attrs := range d.crates {
		if err := g.AddNode(&provenance.Node{ID: fmt.Sprintf("A1-c%d", i+1), Class: provenance.ClassData,
			Type: "crate", AppID: "A1", Attrs: attrs}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= d.pallets; i++ {
		id := fmt.Sprintf("A1-p%d", i)
		if err := g.AddNode(&provenance.Node{ID: id, Class: provenance.ClassData, Type: "pallet", AppID: "A1",
			Attrs: provenance.Attrs{{Name: "code", Value: provenance.String("P")}}}); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(&provenance.Edge{ID: id + "-holds", Type: "holds", AppID: "A1",
			Source: id, Target: "A1-c1"}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func crateRule(cond string) string {
	return `
definitions
  set 'c' to a crate ;
if
  ` + cond + `
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`
}

// at is a source position; notes print it as line:col.
func at(line, col int) bal.Pos { return bal.Pos{Line: line, Col: col} }

// TestNoteTexts pins the text of every note site, rendered on read from
// its typed cause, to the fmt format the note was built with when it was
// formatted at evaluation: each want below is that format and those
// arguments, verbatim.
func TestNoteTexts(t *testing.T) {
	vocab := depotVocab(t)
	attrs := func(kv ...any) provenance.Attrs {
		var a provenance.Attrs
		for i := 0; i < len(kv); i += 2 {
			a.Set(kv[i].(string), kv[i+1].(provenance.Value))
		}
		return a
	}
	nan := provenance.Float(math.NaN())
	_, nanErr := nan.Compare(provenance.Int(1))
	if nanErr == nil {
		t.Fatal("NaN compared without an error")
	}
	ts := provenance.Time(time.Unix(1000, 0).UTC())
	labelled := depot{crates: []provenance.Attrs{attrs("label", provenance.String("L"))}}
	unlabelled := depot{crates: []provenance.Attrs{attrs("weight", provenance.Float(5))}}

	cases := []struct {
		name string
		cond string
		// phrase, when set, replaces the phrase of the condition's left
		// navigation after parsing: the lexer reads no quote in a phrase,
		// but the vocabulary holds one.
		phrase string
		trace  depot
		want   []string
	}{
		{name: "contains", cond: `the label of 'c' contains "x"`, trace: unlabelled, want: []string{
			fmt.Sprintf("%s: %q of %s was not captured", at(5, 3), "label", "A1-c1"),
			fmt.Sprintf("%s: operand of contains is unknown", at(5, 20)),
		}},
		{name: "compare unknown", cond: `the label of 'c' is "x"`, trace: unlabelled, want: []string{
			fmt.Sprintf("%s: %q of %s was not captured", at(5, 3), "label", "A1-c1"),
			fmt.Sprintf("%s: operand of %q is unknown", at(5, 20), bal.OpEq.String()),
		}},
		{name: "compare error", cond: `the weight of 'c' is at least 1`,
			trace: depot{crates: []provenance.Attrs{attrs("weight", nan)}}, want: []string{
				fmt.Sprintf("%s: %v", at(5, 21), nanErr),
			}},
		{name: "is one of", cond: `the label of 'c' is one of "x", "y"`, trace: unlabelled, want: []string{
			fmt.Sprintf("%s: %q of %s was not captured", at(5, 3), "label", "A1-c1"),
			fmt.Sprintf("%s: operand of is-one-of is unknown", at(5, 20)),
		}},
		{name: "between unknown", cond: `the weight of 'c' is between 1 and 2`, trace: labelled, want: []string{
			fmt.Sprintf("%s: %q of %s was not captured", at(5, 3), "weight", "A1-c1"),
			fmt.Sprintf("%s: operand of is-between is unknown", at(5, 21)),
		}},
		{name: "between incomparable", cond: `the weight of 'c' is between 1 and 2`,
			trace: depot{crates: []provenance.Attrs{attrs("weight", nan)}}, want: []string{
				fmt.Sprintf("%s: incomparable values in is-between", at(5, 21)),
			}},
		{name: "within", cond: `the shipping time of 'c' is within 2 days of the packing time of 'c'`,
			trace: depot{crates: []provenance.Attrs{attrs("packedAt", ts)}}, want: []string{
				fmt.Sprintf("%s: %q of %s was not captured", at(5, 3), "shipping time", "A1-c1"),
				fmt.Sprintf("%s: operand of is-within is unknown", at(5, 28)),
			}},
		{name: "method failed", cond: `the inspection of 'c' is "ok"`,
			trace: depot{crates: []provenance.Attrs{attrs("label", provenance.String("jam"))}}, want: []string{
				fmt.Sprintf("%s: %q failed: %v", at(5, 3), "inspection", errors.New("scanner jammed")),
				fmt.Sprintf("%s: operand of %q is unknown", at(5, 25), bal.OpEq.String()),
			}},
		{name: "method unknown", cond: `the inspection of 'c' is "ok"`,
			trace: depot{crates: []provenance.Attrs{attrs("label", provenance.String("blank"))}}, want: []string{
				fmt.Sprintf("%s: %q of %s is unknown", at(5, 3), "inspection", "A1-c1"),
				fmt.Sprintf("%s: operand of %q is unknown", at(5, 25), bal.OpEq.String()),
			}},
		{name: "no node", cond: `the code of the pallet of 'c' is "P"`, trace: labelled, want: []string{
			fmt.Sprintf("%s: no %s to take %q of", at(5, 3), "node<pallet>", "code"),
			fmt.Sprintf("%s: operand of %q is unknown", at(5, 33), bal.OpEq.String()),
		}},
		{name: "ambiguous", cond: `the code of the pallet of 'c' is "P"`,
			trace: depot{crates: labelled.crates, pallets: 3}, want: []string{
				fmt.Sprintf("%s: %d candidates for %q; ambiguous", at(5, 3), 3, "code"),
				fmt.Sprintf("%s: operand of %q is unknown", at(5, 33), bal.OpEq.String()),
			}},
		{name: "quoted phrase", cond: `the label of 'c' is "x"`, phrase: `grädé "a"`,
			trace: depot{crates: []provenance.Attrs{labelled.crates[0], labelled.crates[0]}}, want: []string{
				fmt.Sprintf("%s: %d candidates for %q; ambiguous", at(5, 3), 2, `grädé "a"`),
				fmt.Sprintf("%s: operand of %q is unknown", at(5, 20), bal.OpEq.String()),
			}},
		{name: "division by zero", cond: `the weight of 'c' / 0 is at least 1`, trace: unlabelled, want: []string{
			fmt.Sprintf("%s: division by zero", at(5, 21)),
			fmt.Sprintf("%s: operand of %q is unknown", at(5, 25), bal.OpGe.String()),
		}},
		{name: "not applicable", cond: `the label of 'c' is "x"`, trace: depot{}, want: []string{
			fmt.Sprintf("no %s in trace %s for '%s'", "crate", "A1", "c"),
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := crateRule(tc.cond)
			rt, err := bal.Parse(text, vocabAdapter{vocab})
			if err != nil {
				t.Fatal(err)
			}
			if tc.phrase != "" {
				rt.If.(*bal.Cmp).L.(*bal.Nav).Phrase = tc.phrase
			}
			c, err := compileRule(text, rt, vocab)
			if err != nil {
				t.Fatal(err)
			}
			res := c.Evaluate(tc.trace.build(t).Snapshot(), "A1")
			if got := res.Notes(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("verdict %v, notes\n got %q\nwant %q", res.Verdict, got, tc.want)
			}
		})
	}
}

// TestAddNote: a note attached by an evaluator other than a compiled rule
// reads back as given, after any the evaluation recorded.
func TestAddNote(t *testing.T) {
	res := &Result{AppID: "A1"}
	if res.Notes() != nil {
		t.Fatal("a result without causes has notes")
	}
	res.AddNote(`subgraph "x" missing`)
	if got := res.Notes(); !reflect.DeepEqual(got, []string{`subgraph "x" missing`}) {
		t.Fatalf("notes = %q", got)
	}
}
