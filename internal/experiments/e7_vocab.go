package experiments

import (
	"fmt"
	"time"

	"repro/internal/bom"
	"repro/internal/provenance"
	"repro/internal/rules"
	"repro/internal/xom"
)

// E7VocabScale measures parse+compile time against vocabulary size. A
// synthetic data model grows to V phrase entries around a fixed core (the
// hiring requisition concepts), and the same control text compiles at
// every size. Because the matcher buckets phrases by first token (design
// decision D2), cost should stay near-flat as unrelated vocabulary grows.
// The experiment also plants deliberately overlapping phrases ("position",
// "position type", "position type code") and asserts longest-match keeps
// resolving the control identically.
func E7VocabScale(sizes []int) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Rule compilation vs vocabulary size",
		Paper:   "§II-D verbalization; design decision D2 (longest-match phrases)",
		Columns: []string{"vocab phrases", "parse+compile", "per-phrase overhead"},
	}
	const controlText = `
definitions
  set 'the request' to a job requisition ;
if
  the position type of 'the request' is "new"
  and the approval of 'the request' exists
then
  the internal control is satisfied ;
else
  the internal control is not satisfied ;
`
	var base time.Duration
	for _, size := range sizes {
		vocab, err := syntheticVocabulary(size)
		if err != nil {
			return nil, err
		}
		const reps = 50
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := rules.Compile(controlText, vocab); err != nil {
				return nil, fmt.Errorf("vocab size %d: %v", size, err)
			}
		}
		per := time.Since(start) / reps
		if base == 0 {
			base = per
		}
		overhead := "baseline"
		if per > base {
			overhead = fmt.Sprintf("+%.0f%%", 100*(float64(per)/float64(base)-1))
		}
		t.AddRow(vocab.Size(), per.String(), overhead)

		// Longest-match correctness under growth: the deliberately
		// overlapping phrases must not change what the control binds to.
		c, err := rules.Compile(controlText, vocab)
		if err != nil {
			return nil, err
		}
		g := provenance.NewGraph()
		if err := seedVocabTrace(g); err != nil {
			return nil, err
		}
		if res := c.Evaluate(g, "T1"); res.Verdict != rules.Satisfied {
			return nil, fmt.Errorf("vocab size %d: verdict %v, want satisfied (%v)",
				size, res.Verdict, res.Notes())
		}
	}
	t.Notes = append(t.Notes,
		"phrase lookup buckets by first token, so unrelated vocabulary adds near-zero cost",
		"overlapping phrases (position / position type / position type code) resolve identically at every size",
	)
	return t, nil
}

// syntheticVocabulary builds a model whose vocabulary has roughly `size`
// phrase entries: the hiring core plus filler types.
func syntheticVocabulary(size int) (*bom.Vocabulary, error) {
	m := provenance.NewModel("synthetic")
	if err := m.AddType(&provenance.TypeDef{Name: "jobRequisition", Class: provenance.ClassData}); err != nil {
		return nil, err
	}
	coreFields := []provenance.FieldDef{
		{Name: "reqID", Kind: provenance.KindString},
		{Name: "positionType", Kind: provenance.KindString},
		{Name: "position", Kind: provenance.KindString},
		{Name: "positionTypeCode", Kind: provenance.KindString},
	}
	for i := range coreFields {
		f := coreFields[i]
		if err := m.AddField("jobRequisition", &f); err != nil {
			return nil, err
		}
	}
	if err := m.AddType(&provenance.TypeDef{Name: "approvalStatus", Class: provenance.ClassData}); err != nil {
		return nil, err
	}
	if err := m.AddField("approvalStatus", &provenance.FieldDef{Name: "approved", Kind: provenance.KindBool}); err != nil {
		return nil, err
	}
	if err := m.AddRelation(&provenance.RelationDef{Name: "approvalOf",
		SourceType: "approvalStatus", TargetType: "jobRequisition"}); err != nil {
		return nil, err
	}
	// Filler: each type contributes ~5 phrase entries.
	for i := 0; len(fillerCount(m)) < size; i++ {
		tn := fmt.Sprintf("fillerType%d", i)
		if err := m.AddType(&provenance.TypeDef{Name: tn, Class: provenance.ClassData}); err != nil {
			return nil, err
		}
		for j := 0; j < 5; j++ {
			f := provenance.FieldDef{Name: fmt.Sprintf("attr%dOf%d", j, i), Kind: provenance.KindString}
			if err := m.AddField(tn, &f); err != nil {
				return nil, err
			}
		}
	}
	om, err := xom.FromModel(m)
	if err != nil {
		return nil, err
	}
	return bom.Verbalize(om, bom.Options{
		ConceptLabels: map[string]string{"jobRequisition": "job requisition"},
		MemberLabels: map[string]string{
			"jobRequisition.positionType":      "position type",
			"jobRequisition.positionTypeCode":  "position type code",
			"jobRequisition.approvalOfInverse": "approval",
		},
	})
}

// fillerCount estimates current phrase entries (fields + relations).
func fillerCount(m *provenance.Model) []struct{} {
	n := 0
	for _, t := range m.Types() {
		n += len(t.Fields())
	}
	n += 2 * len(m.Relations())
	return make([]struct{}, n)
}

// seedVocabTrace builds the minimal satisfied trace for the E7 control.
func seedVocabTrace(g *provenance.Graph) error {
	req := &provenance.Node{ID: "r", Class: provenance.ClassData, Type: "jobRequisition",
		AppID: "T1", Attrs: provenance.Attrs{{Name: "positionType", Value: provenance.String("new")}}}
	if err := g.AddNode(req); err != nil {
		return err
	}
	ap := &provenance.Node{ID: "a", Class: provenance.ClassData, Type: "approvalStatus",
		AppID: "T1", Attrs: provenance.Attrs{{Name: "approved", Value: provenance.Bool(true)}}}
	if err := g.AddNode(ap); err != nil {
		return err
	}
	return g.AddEdge(&provenance.Edge{ID: "e", Type: "approvalOf", AppID: "T1",
		Source: "a", Target: "r"})
}
